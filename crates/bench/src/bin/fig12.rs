//! Figure 12: core-count sensitivity, 4 vs 8 cores.
//! The figure and its fold: [`itesp_bench::grid::fig12`].
//!
//! Run: `cargo run --release -p itesp-bench --bin fig12 [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::fig12::FIGURE);
}
