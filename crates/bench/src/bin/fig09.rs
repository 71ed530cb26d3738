//! Figure 9: data+metadata accesses per read/write operation.
//! The figure and its fold: [`itesp_bench::grid::fig09`].
//!
//! Run: `cargo run --release -p itesp-bench --bin fig09 [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::fig09::FIGURE);
}
