//! Figure 8: normalized execution time, eight designs x 31 benchmarks.
//! The figure and its fold: [`itesp_bench::grid::fig08`].
//!
//! Run: `cargo run --release -p itesp-bench --bin fig08 [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::fig08::FIGURE);
}
