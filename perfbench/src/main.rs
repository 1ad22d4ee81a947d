//! `sg-perfbench --workload W --seed N --seconds S --trace 0|1`: runs one
//! workload of the SG-tree service benchmark. Prints its tags, notes and
//! metrics one per line, then, as the last line, the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an
//! answer or durability check failed, 2 on a usage error.

use sg_perfbench::{run, Opts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sg-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&opts);
    for (k, v) in &report.tags {
        println!("tag {k} = {v}");
    }
    for n in &report.notes {
        println!("note {n}");
    }
    println!(
        "failed_frac = {} ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", report.to_json().to_string_compact());
    std::process::exit(if report.correct { 0 } else { 1 });
}
