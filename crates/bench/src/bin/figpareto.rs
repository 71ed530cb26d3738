//! Pareto sweep: leakage class x slowdown x storage, all 15 schemes.
//! The figure and its fold: [`itesp_bench::grid::figpareto`].
//!
//! Run: `cargo run --release -p itesp-bench --bin figpareto [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::figpareto::FIGURE);
}
