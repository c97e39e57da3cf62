//! The benchmark's contract: workloads, metrics, units, directions, bounds
//! and frozen sizes.  `BENCHMARK.json` at the repository root is generated
//! from this file (`bench list --json`) and a test keeps the two equal.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

/// One workload of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// How long one run measures, in seconds (`run_seconds`).
///
/// Long enough for 35 to 60 passes and over a thousand operations on every
/// workload (README.md, "Sizing" and "Measured spreads": with 15 s windows
/// the spreads were 13-23 %), short enough that 92 runs fit the driver's
/// 3420 s.
pub const RUN_SECONDS: u64 = 25;

/// The directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["perfbench"];

/// The run command; the driver appends `--workload … --seed … --seconds …
/// --trace …`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "bench",
    "--",
    "run",
];

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tree-nav",
        why: "XMark+Treebank X/T/O query sweeps through prepared statements: rank/select, BP and tagged jumps and the top-down/direct evaluators do all the work; a text-side change must read flat here",
    },
    Workload {
        name: "text-search",
        why: "Medline+wiki M/W/O sweeps plus ranked keyword searches: FM backward search, locate, plain scan, bottom-up/text-first and ranking dominate; the mirror image of tree-nav",
    },
    Workload {
        name: "ingest",
        why: "parse, build, save and load of all four corpora plus a collection build: the write side, where a query win bought with denser samples or a slower constructor shows",
    },
    Workload {
        name: "serve",
        why: "two closed-loop socket clients replay a Zipf request mix over a pool 4x the result cache: the only path through framing, the three LRUs and collection fan-out, with hits and misses",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics; every workload reports every one.  What an
/// *operation* and a *pass* are on each workload is defined in README.md.
///
/// A bound is three times the widest spread measured on the reference host
/// (quartile distance over ten seeds, as a share of the median; README.md,
/// "Measured spreads"), or the contract's maximum where that is less:
/// `setup_s`, `peak_rss_mb` (the daemon's 22 MB heap moves by a tenth from
/// run to run) and the timings, which are quiet-host readings because each
/// core of the host switches between two speed regimes a quarter apart
/// (`measure::QUIET_PERCENTILE`).  `bench compare` pairs runs by seed and
/// resolves smaller changes than these bounds do.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("heap_bytes_per_xml_byte", "B/B", Better::Lower, 0.02),
    e2e("disk_bytes_per_xml_byte", "B/B", Better::Lower, 0.02),
    e2e("op_geomean_us", "us", Better::Lower, 0.25),
    e2e("op_tail_us", "us", Better::Lower, 0.25),
    e2e("pass_p10_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
];

/// The 14 signature queries of the `xpath.q.*` rows: pure traversal, tagged
/// jumps, the heaviest memo load, frequent/rare text seeds and the rows
/// that drifted between PR 4 and PR 7.
pub const SIGNATURE_QUERIES: &[(&str, &str)] = &[
    ("X04", "count"),
    ("X12", "count"),
    ("X14", "count"),
    ("X17", "nodes"),
    ("T02", "count"),
    ("T05", "count"),
    ("M02", "count"),
    ("M06", "count"),
    ("M10", "count"),
    ("W03", "count"),
    ("O08", "count"),
    ("O09", "count"),
    ("O12", "count"),
    ("O14", "count"),
];

/// The span names `sut.rs` records, one `trace.self_pct.*` row each.
pub const SPAN_NAMES: &[&str] = &[
    "xml.parse",
    "core.build",
    "core.save",
    "core.load",
    "collection.build",
    "core.parse",
    "core.compile",
    "core.run",
    "core.serialize",
    "search.prepare",
    "search.lift",
    "engine.render",
    "engine.server.handle_command",
    "engine.server.rtt",
];

/// The per-layer metrics, from the traced run; every workload reports every
/// one, measured on its own index where it has that corpus kind and on a
/// probe-size corpus of the same seed where it has not.
pub fn per_layer() -> &'static [Metric] {
    static ROWS: std::sync::OnceLock<Vec<Metric>> = std::sync::OnceLock::new();
    ROWS.get_or_init(build_per_layer)
}

fn build_per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut rows: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add = |prefix: &str, names: &[&str], unit: &'static str, better: Better| {
        for name in names {
            rows.push((format!("{prefix}{name}"), unit, better));
        }
    };
    add(
        "succinct.",
        &[
            "bp_rank_ns",
            "bp_select_ns",
            "leaf_rank_ns",
            "leaf_select_ns",
            "tag_access_ns",
            "tag_rank_ns",
            "tag_succ_ns",
            "bwt_rank_ns",
            "bwt_access_ns",
        ],
        "ns",
        Lower,
    );
    add(
        "tree.",
        &[
            "close_ns",
            "parent_ns",
            "first_child_ns",
            "next_sibling_ns",
            "subtree_size_ns",
            "tagged_desc_ns",
            "tagged_foll_ns",
            "tagged_prec_ns",
            "text_ids_ns",
            "lca_ns",
            "dfs_ns_per_node",
        ],
        "ns",
        Lower,
    );
    add("text.", &["backward_step_ns"], "ns", Lower);
    add("text.", &["count_us"], "us", Lower);
    add("text.", &["locate_ns", "extract_ns_per_byte"], "ns", Lower);
    add(
        "text.",
        &["contains_rare_us", "contains_frequent_us"],
        "us",
        Lower,
    );
    add("text.", &["scan_mb_per_s"], "MB/s", Higher);
    add("text.", &["starts_with_us", "equals_us"], "us", Lower);
    add("xml.", &["parse_mb_per_s"], "MB/s", Higher);
    add(
        "core.",
        &["parse_us", "compile_us", "prepare_us"],
        "us",
        Lower,
    );
    add("core.", &["build_from_parsed_mb_per_s"], "MB/s", Higher);
    add(
        "core.",
        &[
            "save_ms",
            "load_ms",
            "load_verified_deep_ms",
            "verify_quick_ms",
        ],
        "ms",
        Lower,
    );
    add("core.", &["serialize_mb_per_s"], "MB/s", Higher);
    add(
        "xpath.",
        &[
            "topdown.geomean_us",
            "bottomup.geomean_us",
            "direct.geomean_us",
            "textfirst.geomean_us",
            "exists.geomean_us",
            "count.geomean_us",
            "nodes.geomean_us",
            "limit10.geomean_us",
        ],
        "us",
        Lower,
    );
    add(
        "xpath.",
        &["visited_per_result", "marked_per_result"],
        "count",
        Lower,
    );
    for mode in ["count", "nodes"] {
        for set in ["X", "T", "M", "W", "O"] {
            add("xpath.set.", &[&format!("{set}.{mode}_us")], "us", Lower);
        }
    }
    for (id, mode) in SIGNATURE_QUERIES {
        add("xpath.q.", &[&format!("{id}.{mode}_us")], "us", Lower);
    }
    add("search.", &["prepare_us", "lift_us"], "us", Lower);
    add(
        "search.",
        &["all1_ms", "all2_ms", "all4_ms", "any2_ms", "phrase2_ms"],
        "ms",
        Lower,
    );
    add("collection.", &["build_mb_per_s"], "MB/s", Higher);
    add("collection.", &["open_ms", "first_touch_ms"], "ms", Lower);
    add("engine.", &["batch.t1_qps", "batch.t2_qps"], "1/s", Higher);
    add("engine.", &["batch.compile_us"], "us", Lower);
    add(
        "engine.",
        &[
            "collection.t1_ms",
            "collection.t2_ms",
            "collection.sequential_ms",
            "search_collection_ms",
        ],
        "ms",
        Lower,
    );
    add(
        "engine.",
        &[
            "render_us",
            "server.frame_rtt_us",
            "server.handle_hit_us",
            "server.handle_miss_us",
        ],
        "us",
        Lower,
    );
    add(
        "engine.",
        &[
            "server.result_cache_hit_rate",
            "server.plan_cache_hit_rate",
            "server.search_cache_hit_rate",
        ],
        "ratio",
        Higher,
    );
    add("trace.", &["overhead_pct", "text_op_share_pct"], "%", Lower);
    add("trace.self_pct.", SPAN_NAMES, "%", Lower);
    rows.into_iter()
        .map(|(name, unit, better)| Metric {
            // Built once per process (see `per_layer`); leaking ~110 short
            // names keeps `Metric` a plain `Copy` table row.
            name: Box::leak(name.into_boxed_str()),
            unit,
            better,
            bound: 0.0,
        })
        .collect()
}

/// Corpus and loop sizes.  [`Sizes::FROZEN`] is what the benchmark measures;
/// the smoke test uses [`Sizes::TINY`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `tree-nav`: XMark scale and Treebank sentences.
    pub nav: (f64, usize),
    /// `text-search`: Medline citations and wiki pages.
    pub text: (usize, usize),
    /// `ingest`: XMark scale, Treebank sentences, Medline citations, wiki pages.
    pub ingest: (f64, usize, usize, usize),
    /// `serve`: XMark scale (also the total scale of the collection) and
    /// Medline citations.
    pub serve: (f64, usize),
    /// Corpus kinds a workload lacks, built for the traced run only.
    pub probe: (f64, usize, usize, usize),
    /// Documents in the XMark collection.
    pub segments: usize,
    /// Distinct requests in the `serve` pool.
    pub pool: usize,
    /// Length of each `serve` client's request sequence; one pass replays
    /// it once.
    pub block: usize,
    /// The oracle check runs on corpora this many times smaller.
    pub oracle_divisor: f64,
    /// Seeded-random operands per ns/op row of the layer suite.
    pub operands: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Warm-up passes discarded before measuring.
    pub warmup_passes: usize,
}

impl Sizes {
    /// The sizes every recorded result uses (see README.md, "Sizing").
    pub const FROZEN: Sizes = Sizes {
        nav: (2.5, 2500),
        text: (1300, 3000),
        ingest: (1.2, 1200, 700, 900),
        serve: (0.6, 400),
        probe: (1.0, 1000, 500, 800),
        segments: 8,
        pool: 512,
        block: 2000,
        oracle_divisor: 20.0,
        operands: 100_000,
        setups: 3,
        warmup_passes: 2,
    };

    /// Sizes for `cargo test`: every code path, a few seconds in total.
    pub const TINY: Sizes = Sizes {
        nav: (0.05, 40),
        text: (40, 40),
        ingest: (0.03, 30, 20, 20),
        serve: (0.05, 40),
        probe: (0.03, 30, 20, 20),
        segments: 3,
        pool: 48,
        block: 160,
        oracle_divisor: 2.0,
        operands: 500,
        setups: 2,
        warmup_passes: 1,
    };
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn contract_limits_hold() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name, 64), "bad name {name}");
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(layers) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
            );
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_generated_from_this_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(path).expect("BENCHMARK.json exists at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json().to_pretty(),
            "regenerate with `bench list --json`"
        );
    }
}
