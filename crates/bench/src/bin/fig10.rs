//! Figure 10: normalized memory energy and system EDP.
//! The figure and its fold: [`itesp_bench::grid::fig10`].
//!
//! Run: `cargo run --release -p itesp-bench --bin fig10 [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::fig10::FIGURE);
}
