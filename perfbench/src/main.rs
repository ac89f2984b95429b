//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is the run's stamp. `--emit-digests` prints the
//! operations' digests for `digests.txt` instead of checking them.
//! `--setup-only` prints only the median set-up time of this process;
//! a `--trace 0` run starts such processes for `setup_s`.

use satiot_perfbench::run;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match run::parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        match run::setup_median(&args) {
            Ok(secs) => println!("{secs:?}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let outcome = run::run(&args);
    for p in &outcome.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    if args.emit_digests {
        for line in &outcome.digests {
            println!("{line}");
        }
        return;
    }
    for m in &outcome.metrics {
        eprintln!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        run::stamp(&args, &run::options(run::thread_count()), &outcome.notes)
    );
    println!("{}", run::result_line(&outcome));
}
