//! RAS sweep: runtime fault injection across fault rate x scheme.
//! The figure and its fold: [`itesp_bench::grid::figras`].
//!
//! Run: `cargo run --release -p itesp-bench --bin figras [ops]` (supports
//! `--jobs`, `--resume`, `--timeout`, `--retries`; see EXPERIMENTS.md)

fn main() {
    itesp_bench::grid::run_standalone(&itesp_bench::grid::figras::FIGURE);
}
