//! The repo's benchmark harness. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! vagg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! vagg-benchmark run [--seed <n>] [--rounds <r>] [--seconds <s>] [--vary-seed] [--smoke] [--out <file>]
//! vagg-benchmark compare <A.json> <B.json>
//! vagg-benchmark manifest
//! ```

mod compare;
mod driver;
mod gen;
mod host;
mod json;
mod oracle;
mod replays;
mod rounds;
mod span;
mod spec;
mod stats;
mod workloads;

use spec::{Workload, DEFAULT_SEED, RUN_SECONDS};
use std::process::ExitCode;
use workloads::Scale;

/// Why the process exits non-zero.
#[derive(Debug)]
pub struct Failure(pub String);

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, Failure> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(Failure(format!("{name} needs a value")));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn number(&mut self, name: &str) -> Result<Option<u64>, Failure> {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| Failure(format!("{name} takes a whole number, got {v:?}")))
            })
            .transpose()
    }

    fn done(self) -> Result<(), Failure> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(Failure(format!("unexpected argument {extra:?}"))),
        }
    }
}

fn dispatch(mut args: Args) -> Result<(), Failure> {
    let scale = if args.flag("--smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    match args.0.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(())
        }
        Some("compare") => match &args.0[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(Failure("compare takes two result files".into())),
        },
        Some("run") => {
            args.0.remove(0);
            let plan = rounds::Plan {
                seed: args.number("--seed")?.unwrap_or(DEFAULT_SEED),
                rounds: args.number("--rounds")?.unwrap_or(3) as usize,
                seconds: args.number("--seconds")?.unwrap_or(RUN_SECONDS),
                vary_seed: args.flag("--vary-seed"),
                scale,
                out: args.value("--out")?,
            };
            args.done()?;
            rounds::run(plan)
        }
        _ => {
            let name = args.value("--workload")?.ok_or_else(|| {
                Failure("missing --workload (or a subcommand: run, compare, manifest)".into())
            })?;
            let request = driver::Request {
                workload: Workload::parse(&name)
                    .ok_or_else(|| Failure(format!("unknown workload {name:?}")))?,
                seed: args.number("--seed")?.unwrap_or(DEFAULT_SEED),
                seconds: args.number("--seconds")?.unwrap_or(RUN_SECONDS),
                trace: match args.number("--trace")?.unwrap_or(0) {
                    0 => false,
                    1 => true,
                    other => return Err(Failure(format!("--trace takes 0 or 1, got {other}"))),
                },
                scale,
            };
            args.done()?;
            driver::run(request)
        }
    }
}

fn main() -> ExitCode {
    match dispatch(Args(std::env::args().skip(1).collect())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure(why)) => {
            eprintln!("vagg-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
