//! [`kernel_bench`], the tracked dyn-vs-kernel and three-C throughput
//! measurement behind `bpsim bench`.

pub mod kernel_bench;
