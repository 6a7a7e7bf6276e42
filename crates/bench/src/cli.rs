//! Shared command-line plumbing for the `src/bin/*` binaries, and the
//! one place that reads their configuration.
//!
//! Every table/figure/tool binary accepts the same scenario-selection
//! vocabulary (`--isa`, `--model`, `--app`, `--cores`) and the sweep
//! family adds campaign knobs (`--faults`, `--epsilon`, `--threads`,
//! `--seed`, `--db`, `--sink`, `--prune-classes`, `--oracle-audit`).
//! This module keeps the parsing in one place so the binaries stay single-screen `main`s:
//!
//! * [`Parser`] — a minimal flag walker with uniform `usage:` / bad
//!   value / unknown flag diagnostics (exit code 2, matching the
//!   original `sweep` behaviour).
//! * [`ScenarioFilter`] — the four selection flags and their projection
//!   of [`Scenario::all`].
//! * [`SweepOpts`] — filter plus campaign overrides, and
//!   [`SweepOpts::resolve`], the only reader of the `FRACAS_*`
//!   environment variables. Flags win over variables, variables over
//!   defaults, and a variable that does not parse is a [`BadValue`]
//!   that binaries report like a bad flag (exit code 2). The library
//!   crates read no environment; they take the resolved [`Config`].

use fracas::inject::{CampaignConfig, Domain, FaultSpace, FleetConfig};
use fracas::isa::IsaKind;
use fracas::npb::{App, Model, Scenario};
use std::ffi::OsString;
use std::path::PathBuf;
use std::process::exit;

/// Walks `std::env::args`, producing flags and their values with
/// uniform error handling. `--help`/`-h` print the usage line and exit.
pub struct Parser {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Parser {
    /// A parser over the process arguments; `usage` is the flag summary
    /// printed on any parse error.
    #[must_use]
    pub fn new(usage: &'static str) -> Parser {
        Parser {
            usage,
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// The next flag, or `None` when the command line is exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.args.next()?;
        if flag == "--help" || flag == "-h" {
            self.usage();
        }
        Some(flag)
    }

    /// Prints the usage line and exits with status 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {}", self.usage);
        exit(2)
    }

    /// The value following `flag`, or a usage error.
    pub fn value(&mut self, flag: &str) -> String {
        self.args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            self.usage()
        })
    }

    /// The value following `flag`, parsed as `T`, or a usage error.
    pub fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let text = self.value(flag);
        text.parse().unwrap_or_else(|_| {
            eprintln!("bad value {text:?} for {flag}");
            self.usage()
        })
    }

    /// Rejects an unrecognised flag with a usage error.
    pub fn unknown(&self, flag: &str) -> ! {
        eprintln!("unknown flag {flag}");
        self.usage()
    }
}

/// The four scenario-selection flags shared by every binary that
/// iterates campaigns. Unset fields match everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScenarioFilter {
    /// `--isa sira32|sira64`
    pub isa: Option<IsaKind>,
    /// `--model ser|omp|mpi`
    pub model: Option<Model>,
    /// `--app NAME` (case-insensitive NPB kernel name)
    pub app: Option<App>,
    /// `--cores N`
    pub cores: Option<u32>,
}

/// The usage fragment for [`ScenarioFilter`]'s flags.
pub const FILTER_USAGE: &str =
    "[--isa sira32|sira64] [--model ser|omp|mpi] [--app NAME] [--cores N]";

impl ScenarioFilter {
    /// Consumes `flag` (and its value) when it is one of the selection
    /// flags; returns `false` to let the caller try its own flags.
    pub fn accept(&mut self, p: &mut Parser, flag: &str) -> bool {
        match flag {
            "--isa" => {
                let name = p.value(flag);
                self.isa = Some(
                    IsaKind::ALL
                        .into_iter()
                        .find(|i| i.name() == name)
                        .unwrap_or_else(|| {
                            eprintln!("unknown ISA {name}");
                            p.usage()
                        }),
                );
            }
            "--model" => {
                let name = p.value(flag);
                // `serial` is accepted beside the short name `ser`.
                let short = if name == "serial" { "ser" } else { &name };
                self.model = Some(
                    Model::ALL
                        .into_iter()
                        .find(|m| m.name() == short)
                        .unwrap_or_else(|| {
                            eprintln!("unknown model {name}");
                            p.usage()
                        }),
                );
            }
            "--app" => {
                let name = p.value(flag).to_uppercase();
                self.app = Some(
                    App::ALL
                        .into_iter()
                        .find(|a| a.name() == name)
                        .unwrap_or_else(|| {
                            eprintln!("unknown app {name}");
                            p.usage()
                        }),
                );
            }
            "--cores" => self.cores = Some(p.parsed(flag)),
            _ => return false,
        }
        true
    }

    /// True when `s` passes every set field.
    #[must_use]
    pub fn matches(&self, s: &Scenario) -> bool {
        self.isa.is_none_or(|isa| s.isa == isa)
            && self.model.is_none_or(|m| s.model == m)
            && self.app.is_none_or(|a| s.app == a)
            && self.cores.is_none_or(|c| s.cores == c)
    }

    /// The matching subset of [`Scenario::all`]; exits with status 1
    /// when the filters select nothing (always a user typo).
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let out: Vec<Scenario> = Scenario::all()
            .into_iter()
            .filter(|s| self.matches(s))
            .collect();
        if out.is_empty() {
            eprintln!("no scenario matches the given filters");
            exit(1);
        }
        out
    }
}

/// The full sweep-family command line: scenario selection plus campaign
/// configuration overrides, resolved over the `FRACAS_*` environment by
/// [`SweepOpts::resolve`].
#[derive(Debug, Default)]
pub struct SweepOpts {
    /// Scenario selection.
    pub filter: ScenarioFilter,
    /// `--faults N`: injections per scenario.
    pub faults: Option<usize>,
    /// `--epsilon E`: Wilson-interval early-stop half-width.
    pub epsilon: Option<f64>,
    /// `--threads N`: worker-pool size.
    pub threads: Option<usize>,
    /// `--seed N`: campaign PRNG seed.
    pub seed: Option<u64>,
    /// `--db PATH`: campaign database file.
    pub db: Option<PathBuf>,
    /// `--sink PATH`: in-flight record sink.
    pub sink: Option<PathBuf>,
    /// `--prune-classes`: decide provably-masked injections without
    /// executing them, and collapse the rest into interval-keyed
    /// equivalence classes that execute one representative each (the
    /// database is byte-identical with or without it, only faster).
    pub prune_classes: bool,
    /// `--oracle-audit R`: with `--prune-classes`, also execute a
    /// deterministic fraction `R` of the synthesized records (decided
    /// faults and class members) for real and fail the sweep on any
    /// oracle-vs-execution mismatch.
    pub oracle_audit: Option<f64>,
    /// `--<domain>-faults` flags, in command-line order: fault-domain
    /// registry entries whose spaces replace the architectural-register
    /// default. The first flag resets the space to empty, every flag
    /// enables its domain, so flags compose (`--text-faults` alone is
    /// the decode-differential campaign axis; `--cache-faults
    /// --kernelctl-faults --skip-faults` is the uncore axis).
    pub domains: Vec<&'static Domain>,
}

/// Resolves a `--<domain>-faults` flag against the fault-domain
/// registry: the domain whose boolean switch the stem names, `None`
/// otherwise. Adding a domain to the registry grows the sweep's flag
/// set with no change here.
fn domain_flag(flag: &str) -> Option<&'static Domain> {
    let stem = flag.strip_prefix("--")?.strip_suffix("-faults")?;
    fracas::inject::domains()
        .iter()
        .copied()
        .find(|d| d.flag == Some(stem))
}

impl SweepOpts {
    /// The usage fragment for the campaign flags (append to
    /// [`FILTER_USAGE`]).
    pub const USAGE: &'static str = "[--faults N] [--epsilon E] [--threads N] [--seed N] \
         [--db PATH] [--sink PATH] [--prune-classes] [--oracle-audit R] \
         [--<domain>-faults: gpr|fpr|flag|text|cache|kernelctl|skip|storebuf|cachedata]";

    /// Parses the process arguments, accepting the filter flags and the
    /// campaign overrides.
    #[must_use]
    pub fn parse(usage: &'static str) -> SweepOpts {
        let mut p = Parser::new(usage);
        let mut opts = SweepOpts::default();
        while let Some(flag) = p.next_flag() {
            if opts.filter.accept(&mut p, &flag) {
                continue;
            }
            match flag.as_str() {
                "--faults" => opts.faults = Some(p.parsed(&flag)),
                "--epsilon" => opts.epsilon = Some(p.parsed(&flag)),
                "--threads" => opts.threads = Some(p.parsed(&flag)),
                "--seed" => opts.seed = Some(p.parsed(&flag)),
                "--db" => opts.db = Some(PathBuf::from(p.value(&flag))),
                "--sink" => opts.sink = Some(PathBuf::from(p.value(&flag))),
                "--prune-classes" => opts.prune_classes = true,
                "--oracle-audit" => opts.oracle_audit = Some(p.parsed(&flag)),
                other => match domain_flag(other) {
                    Some(domain) => opts.domains.push(domain),
                    None => p.unknown(other),
                },
            }
        }
        opts
    }

    /// This command line over the `FRACAS_*` variables of `env` over the
    /// defaults. Each knob is a flag, a variable, or both:
    ///
    /// | flag | variable | default |
    /// |---|---|---|
    /// | `--faults N` | `FRACAS_FAULTS` | 60 |
    /// | `--seed N` | `FRACAS_SEED` | `0xFACA5` |
    /// | `--threads N` | `FRACAS_THREADS` | 0 = available parallelism |
    /// | — | `FRACAS_CHECKPOINTS` | 16 |
    /// | `--prune-classes` | `FRACAS_PRUNE_CLASSES` (nonzero = on) | off |
    /// | `--oracle-audit R` | `FRACAS_ORACLE_AUDIT` | 0 = off |
    /// | `--epsilon E` | `FRACAS_EPSILON` | 0 = off |
    /// | `--db PATH` | `FRACAS_DB` | `fracas_campaigns.jsonl` |
    /// | `--sink PATH` | `FRACAS_SINK` | the database path + `.wal` |
    ///
    /// Numeric values may carry surrounding whitespace. Progress lines
    /// are on.
    ///
    /// # Errors
    ///
    /// [`BadValue`] when a set numeric variable does not parse, even if
    /// a flag overrides it.
    pub fn resolve(&self, env: impl Fn(&str) -> Option<OsString>) -> Result<Config, BadValue> {
        let defaults = CampaignConfig::default();
        let mut campaign = CampaignConfig {
            faults: knob(self.faults, &env, "FRACAS_FAULTS", HARNESS_FAULTS)?,
            seed: knob(self.seed, &env, "FRACAS_SEED", defaults.seed)?,
            threads: knob(self.threads, &env, "FRACAS_THREADS", defaults.threads)?,
            checkpoints: knob(None, &env, "FRACAS_CHECKPOINTS", defaults.checkpoints)?,
            prune_classes: knob::<u64>(None, &env, "FRACAS_PRUNE_CLASSES", 0)? != 0
                || self.prune_classes,
            oracle_audit: knob(self.oracle_audit, &env, "FRACAS_ORACLE_AUDIT", 0.0)?,
            ..defaults
        };
        if !self.domains.is_empty() {
            let mut space = FaultSpace::none();
            for domain in &self.domains {
                (domain.enable)(&mut space);
            }
            campaign.space = space;
        }
        let fleet = FleetConfig {
            campaign,
            epsilon: knob(self.epsilon, &env, "FRACAS_EPSILON", 0.0)?,
            progress: true,
            ..FleetConfig::default()
        };
        let db = self
            .db
            .clone()
            .or_else(|| env("FRACAS_DB").map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("fracas_campaigns.jsonl"));
        let sink = self
            .sink
            .clone()
            .or_else(|| env("FRACAS_SINK").map(PathBuf::from))
            .unwrap_or_else(|| {
                let mut wal = db.clone().into_os_string();
                wal.push(".wal");
                PathBuf::from(wal)
            });
        Ok(Config { fleet, db, sink })
    }

    /// [`SweepOpts::resolve`] over the process environment. A bad value
    /// is a usage error: its message and `usage` go to stderr and the
    /// process exits with status 2, as for a bad flag.
    #[must_use]
    pub fn config(&self, usage: &str) -> Config {
        self.resolve(|name| std::env::var_os(name))
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                eprintln!("usage: {usage}");
                exit(2)
            })
    }
}

/// Injections per scenario when neither `--faults` nor `FRACAS_FAULTS`
/// sets them. The paper used 8,000 on a 5,000-core cluster; library
/// callers get [`CampaignConfig::default`]'s 100.
const HARNESS_FAULTS: usize = 60;

/// The usage line of a binary that takes no flags, for
/// [`SweepOpts::config`].
pub const ENV_USAGE: &str = "no flags; FRACAS_* variables configure the campaigns \
     (see the fracas-bench crate documentation)";

/// What a binary runs under, as [`SweepOpts::resolve`] settles it.
#[derive(Debug)]
pub struct Config {
    /// Campaign and sweep parameters.
    pub fleet: FleetConfig,
    /// The campaign database.
    pub db: PathBuf,
    /// The in-flight record sink.
    pub sink: PathBuf,
}

/// A `FRACAS_*` variable whose value does not parse.
#[derive(Debug)]
pub struct BadValue {
    /// The variable.
    pub var: &'static str,
    /// Its value (lossily decoded when it is not Unicode).
    pub value: String,
}

impl std::fmt::Display for BadValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad value {:?} for {}", self.value, self.var)
    }
}

impl std::error::Error for BadValue {}

/// `flag`, else variable `name` of `env` parsed as `T`, else `default`.
/// A set variable must parse even when `flag` overrides it.
fn knob<T: std::str::FromStr>(
    flag: Option<T>,
    env: &impl Fn(&str) -> Option<OsString>,
    name: &'static str,
    default: T,
) -> Result<T, BadValue> {
    let var = match env(name) {
        None => None,
        Some(raw) => Some(
            raw.to_str()
                .and_then(|text| text.trim().parse().ok())
                .ok_or_else(|| BadValue {
                    var: name,
                    value: raw.to_string_lossy().into_owned(),
                })?,
        ),
    };
    Ok(flag.or(var).unwrap_or(default))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_matches_every_scenario() {
        let filter = ScenarioFilter::default();
        assert!(Scenario::all().iter().all(|s| filter.matches(s)));
    }

    #[test]
    fn filter_fields_project_the_suite() {
        let filter = ScenarioFilter {
            isa: Some(IsaKind::Sira64),
            model: Some(Model::Serial),
            app: Some(App::Ep),
            cores: None,
        };
        let hits: Vec<Scenario> = Scenario::all()
            .into_iter()
            .filter(|s| filter.matches(s))
            .collect();
        assert!(!hits.is_empty());
        assert!(hits
            .iter()
            .all(|s| s.isa == IsaKind::Sira64 && s.model == Model::Serial && s.app == App::Ep));
    }

    /// An environment holding exactly `vars`.
    fn env<'a>(vars: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<OsString> + 'a {
        move |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| OsString::from(v))
        }
    }

    fn resolve(opts: &SweepOpts, vars: &[(&str, &str)]) -> Config {
        opts.resolve(env(vars)).expect("valid values")
    }

    #[test]
    fn count_flag_beats_variable_beats_harness_default() {
        let faults = |opts: &SweepOpts, vars| resolve(opts, vars).fleet.campaign.faults;
        let (none, set) = (SweepOpts::default(), [("FRACAS_FAULTS", " 12 ")]);
        let flag = SweepOpts {
            faults: Some(7),
            ..SweepOpts::default()
        };
        assert_eq!(faults(&flag, &set), 7);
        assert_eq!(faults(&none, &set), 12);
        assert_eq!(faults(&none, &[]), 60);
    }

    #[test]
    fn rate_flag_beats_variable_beats_default() {
        let rate = |opts: &SweepOpts, vars| resolve(opts, vars).fleet.campaign.oracle_audit;
        let (none, set) = (SweepOpts::default(), [("FRACAS_ORACLE_AUDIT", "0.05")]);
        let flag = SweepOpts {
            oracle_audit: Some(0.25),
            ..SweepOpts::default()
        };
        assert_eq!(rate(&flag, &set), 0.25);
        assert_eq!(rate(&none, &set), 0.05);
        assert_eq!(rate(&none, &[]), 0.0);
    }

    #[test]
    fn switch_flag_beats_variable_beats_default() {
        let prune = |opts: &SweepOpts, vars| resolve(opts, vars).fleet.campaign.prune_classes;
        let none = SweepOpts::default();
        let flag = SweepOpts {
            prune_classes: true,
            ..SweepOpts::default()
        };
        assert!(prune(&flag, &[("FRACAS_PRUNE_CLASSES", "0")]));
        assert!(prune(&none, &[("FRACAS_PRUNE_CLASSES", "2")]));
        assert!(!prune(&none, &[("FRACAS_PRUNE_CLASSES", "0")]));
        assert!(!prune(&none, &[]));
    }

    #[test]
    fn path_flag_beats_variable_beats_default() {
        let db = |opts: &SweepOpts, vars| resolve(opts, vars).db;
        let (none, set) = (SweepOpts::default(), [("FRACAS_DB", "var.jsonl")]);
        let flag = SweepOpts {
            db: Some(PathBuf::from("flag.jsonl")),
            ..SweepOpts::default()
        };
        assert_eq!(db(&flag, &set), PathBuf::from("flag.jsonl"));
        assert_eq!(db(&none, &set), PathBuf::from("var.jsonl"));
        assert_eq!(db(&none, &[]), PathBuf::from("fracas_campaigns.jsonl"));
    }

    #[test]
    fn sink_is_the_db_path_with_wal_unless_named() {
        let sink = |opts: &SweepOpts, vars| resolve(opts, vars).sink;
        let flags = SweepOpts {
            db: Some(PathBuf::from("/tmp/x.jsonl")),
            ..SweepOpts::default()
        };
        let (var_db, named) = (
            [("FRACAS_DB", "/tmp/y.jsonl")],
            [("FRACAS_SINK", "/tmp/v.wal")],
        );
        assert_eq!(sink(&flags, &[]), PathBuf::from("/tmp/x.jsonl.wal"));
        assert_eq!(
            sink(&SweepOpts::default(), &var_db),
            PathBuf::from("/tmp/y.jsonl.wal")
        );
        assert_eq!(sink(&flags, &named), PathBuf::from("/tmp/v.wal"));
        let sink_flag = SweepOpts {
            sink: Some(PathBuf::from("/tmp/f.wal")),
            ..flags
        };
        assert_eq!(sink(&sink_flag, &named), PathBuf::from("/tmp/f.wal"));
    }

    #[test]
    fn bad_values_name_their_variable() {
        let overridden = SweepOpts {
            faults: Some(7),
            oracle_audit: Some(0.1),
            prune_classes: true,
            ..SweepOpts::default()
        };
        for (var, value) in [
            ("FRACAS_FAULTS", "banana"),
            ("FRACAS_FAULTS", ""),
            ("FRACAS_ORACLE_AUDIT", "5%"),
            ("FRACAS_PRUNE_CLASSES", "yes"),
        ] {
            for opts in [&SweepOpts::default(), &overridden] {
                let err = opts.resolve(env(&[(var, value)])).expect_err(var);
                assert_eq!((err.var, err.value.as_str()), (var, value));
                assert!(err.to_string().contains(var), "{err}");
            }
        }
    }
}
