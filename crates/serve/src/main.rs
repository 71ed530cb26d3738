//! `itesp-serve` — the simulator as a long-running traffic endpoint.
//! Configuration and exit codes: see `itesp_serve::daemon`.

fn main() {
    itesp_serve::daemon::main()
}
