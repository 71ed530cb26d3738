//! Figure 11: Morphable-counter designs with counter overflow, 8 cores.
//! The figure and its fold: [`itesp_bench::grid::fig11`].
//!
//! Run: `cargo run --release -p itesp-bench --bin fig11 [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::fig11::FIGURE);
}
