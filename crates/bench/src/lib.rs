//! [`kernel_bench`], the tracked kernel and three-C throughput
//! measurement behind `bpsim bench`.

pub mod kernel_bench;
