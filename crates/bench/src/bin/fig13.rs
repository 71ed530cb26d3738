//! Figure 13: metadata-cache size sensitivity.
//! The figure and its fold: [`itesp_bench::grid::fig13`].
//!
//! Run: `cargo run --release -p itesp-bench --bin fig13 [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::fig13::FIGURE);
}
