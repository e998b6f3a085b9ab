//! The repository benchmark: two measured workloads with end-to-end
//! metrics, per-layer metrics from a separate traced run, and a traced
//! run of pipelined TPC-A over TCP.
//!
//! ```text
//! perfbench --workload <tpca-engine|ycsb-a-inproc> --seed N --seconds S --trace 0|1
//! perfbench --workload tpca-tcp --seed N --trace 1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod checks;
mod engine;
mod layers;
mod served;
mod tpcatcp;
mod util;
mod ycsb;

use util::Args;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("tpca-engine", false) => engine::run(&args),
        ("ycsb-a-inproc", false) => ycsb::run_inproc(&args),
        ("tpca-engine", true) => engine::trace(&args),
        ("ycsb-a-inproc", true) => ycsb::trace(&args),
        ("tpca-tcp", true) => tpcatcp::trace(&args),
        ("tpca-tcp", false) => {
            eprintln!("perfbench: tpca-tcp has only a traced run (--trace 1)");
            std::process::exit(2);
        }
        (other, _) => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    outcome.print(&args.workload);
}
