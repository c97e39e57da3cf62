//! The layer suite of the traced run: one row per layer primitive, timed
//! from outside around calls into the layer's public functions (through
//! `sut.rs`), on the workload's own indexes where it has that corpus kind.
//!
//! The rows are predictions to be checked by later changes: README.md lists
//! which end-to-end metric each row should move, on which workload.

use std::time::Instant;

use crate::load::{Rng, Vocabulary};
use crate::measure::{median_us, times_us, Rows};
use crate::spec::SIGNATURE_QUERIES;
use crate::stats::{self, Summary};
use crate::sut::{self, lanes, prim, Corpus, Index, Mode, Node, Tag};
use crate::trace::Tracer;
use crate::workloads::ingest::segment_xml;
use crate::workloads::queries::search_shapes;
use crate::workloads::serve::Serve;
use crate::workloads::{Built, Check, Env, Workload};

/// One line of the trace file's `per_query` table.
#[derive(Debug, Clone)]
pub struct PerQuery {
    /// Catalogue identifier.
    pub id: String,
    /// Run mode.
    pub mode: Mode,
    /// The planner's strategy.
    pub strategy: &'static str,
    /// Result count of the window.
    pub count: u64,
    /// Nodes the evaluator visited.
    pub visited: u64,
    /// Nodes the evaluator marked.
    pub marked: u64,
    /// Median microseconds per run.
    pub us: f64,
}

fn scaled(s: &Summary, by: f64) -> Summary {
    Summary {
        value: s.value * by,
        min: s.min * by,
        mad: s.mad * by,
        n: s.n,
    }
}

fn geomean_row(rows: &mut Rows, name: &str, values: &[f64]) {
    if let (Some(g), Some(spread)) = (stats::geomean(values), Summary::of(values)) {
        rows.put(name, Summary { value: g, ..spread });
    }
}

/// Samples of `work / seconds` over `reps` calls of `f` after one warm-up.
fn rate<T>(reps: usize, work: f64, mut f: impl FnMut() -> T) -> Vec<f64> {
    times_us(reps, &mut f)
        .iter()
        .map(|us| work / (us / 1e6))
        .collect()
}

/// Runs the whole suite over the four corpus slots (in [`Corpus::ALL`]
/// order) and returns the per-query table.
pub fn run_suite(slots: &[Built; 4], env: &Env, rows: &mut Rows) -> Result<Vec<PerQuery>, String> {
    let x = &slots[Corpus::XMark.slot()];
    let m = &slots[Corpus::Medline.slot()];
    let mut rng = Rng::new(env.seed, 30);
    let vocabulary = Vocabulary::of(&m.xml);
    tree_rows(&x.index, env.sizes.operands, &mut rng, rows);
    text_rows(&m.index, &vocabulary, env.sizes.operands, &mut rng, rows);
    core_rows(x, slots, rows)?;
    let per_query = xpath_rows(slots, &vocabulary, &mut rng, rows)?;
    search_rows(&m.index, &vocabulary, &mut rng, rows);
    engine_rows(x, m, env, &mut rng, rows)?;
    Ok(per_query)
}

/// `succinct.*` (tree side) and `tree.*`, on seeded-random nodes.
fn tree_rows(i: &Index, operands: usize, rng: &mut Rng, rows: &mut Rows) {
    let nodes: Vec<Node> = (0..operands)
        .map(|_| prim::node_at_preorder(i, 1 + rng.below(prim::num_nodes(i))))
        .collect();
    let preorders: Vec<usize> = (0..operands)
        .map(|_| 1 + rng.below(prim::num_nodes(i)))
        .collect();
    let texts: Vec<usize> = (0..operands)
        .map(|_| rng.below(prim::num_texts(i).max(1)))
        .collect();
    // A tag drawn through a random node is drawn by its frequency, as the
    // evaluators meet them.
    let tagged: Vec<(Node, Tag)> = nodes
        .iter()
        .map(|&x| (x, prim::tag(i, nodes[rng.below(nodes.len())])))
        .collect();
    let pairs: Vec<(Node, Node)> = nodes
        .iter()
        .map(|&x| (x, nodes[rng.below(nodes.len())]))
        .collect();

    rows.ns_per_op("succinct.bp_rank_ns", &nodes, |&x| prim::preorder(i, x));
    rows.ns_per_op("succinct.bp_select_ns", &preorders, |&p| {
        prim::node_at_preorder(i, p)
    });
    rows.ns_per_op("succinct.leaf_rank_ns", &nodes, |&x| {
        prim::leaf_number(i, x)
    });
    rows.ns_per_op("succinct.leaf_select_ns", &texts, |&d| {
        prim::node_of_text(i, d)
    });
    rows.ns_per_op("succinct.tag_access_ns", &nodes, |&x| {
        prim::tag(i, x) as usize
    });
    rows.ns_per_op("succinct.tag_rank_ns", &tagged, |&(x, t)| {
        prim::subtree_tags(i, x, t)
    });
    rows.ns_per_op("succinct.tag_succ_ns", &tagged, |&(x, t)| {
        prim::tagged_next(i, t, x)
    });

    rows.ns_per_op("tree.close_ns", &nodes, |&x| prim::close(i, x));
    rows.ns_per_op("tree.parent_ns", &nodes, |&x| prim::parent(i, x));
    rows.ns_per_op("tree.first_child_ns", &nodes, |&x| {
        prim::first_child(i, x).unwrap_or(0)
    });
    rows.ns_per_op("tree.next_sibling_ns", &nodes, |&x| {
        prim::next_sibling(i, x).unwrap_or(0)
    });
    rows.ns_per_op("tree.subtree_size_ns", &nodes, |&x| {
        prim::subtree_size(i, x)
    });
    rows.ns_per_op("tree.tagged_desc_ns", &tagged, |&(x, t)| {
        prim::tagged_desc(i, x, t)
    });
    rows.ns_per_op("tree.tagged_foll_ns", &tagged, |&(x, t)| {
        prim::tagged_foll(i, x, t)
    });
    rows.ns_per_op("tree.tagged_prec_ns", &tagged, |&(x, t)| {
        prim::tagged_prec(i, x, t)
    });
    rows.ns_per_op("tree.text_ids_ns", &nodes, |&x| prim::text_ids(i, x));
    rows.ns_per_op("tree.lca_ns", &pairs, |&(x, y)| prim::lca(i, x, y));

    // The full first-child / next-sibling walk of Table 5.
    let mut walk = || {
        let (mut visited, mut stack) = (0usize, vec![prim::root(i)]);
        while let Some(x) = stack.pop() {
            visited += 1;
            stack.extend(prim::next_sibling(i, x));
            stack.extend(prim::first_child(i, x));
        }
        visited
    };
    let visited = walk().max(1);
    let samples: Vec<f64> = times_us(5, &mut walk)
        .iter()
        .map(|us| us * 1e3 / visited as f64)
        .collect();
    rows.put_samples("tree.dfs_ns_per_node", &samples);
}

/// `succinct.bwt_*` and `text.*`, on the Medline slot.
fn text_rows(i: &Index, vocabulary: &Vocabulary, operands: usize, rng: &mut Rng, rows: &mut Rows) {
    let bwt_rows: Vec<usize> = (0..operands)
        .map(|_| rng.below(prim::bwt_len(i).max(1)))
        .collect();
    let ranked: Vec<(u8, usize)> = bwt_rows
        .iter()
        .map(|&r| (prim::bwt_symbol(i, bwt_rows[rng.below(bwt_rows.len())]), r))
        .collect();
    rows.ns_per_op("succinct.bwt_rank_ns", &ranked, |&(b, r)| {
        prim::occ(i, b, r)
    });
    rows.ns_per_op("succinct.bwt_access_ns", &bwt_rows, |&r| {
        prim::bwt_symbol(i, r) as usize
    });

    // Eight-byte substrings of random texts: patterns that do occur.
    const STEP_LEN: usize = 8;
    let num_texts = prim::num_texts(i).max(1);
    let mut patterns: Vec<Vec<u8>> = Vec::new();
    let mut ids: Vec<usize> = Vec::new();
    let mut extracted = 0usize;
    for _ in 0..operands.min(20_000) {
        let id = rng.below(num_texts);
        let text = prim::get_text(i, id);
        ids.push(id);
        extracted += text.len();
        if text.len() >= STEP_LEN {
            let at = rng.below(text.len() - STEP_LEN + 1);
            patterns.push(text[at..at + STEP_LEN].to_vec());
        }
    }
    rows.ns_per_op("text.backward_step_ns", &patterns, |p| prim::fm_count(i, p));
    if let Some(per_pattern) = rows.get("text.backward_step_ns").copied() {
        rows.put(
            "text.backward_step_ns",
            scaled(&per_pattern, 1.0 / STEP_LEN as f64),
        );
    }
    let words: Vec<&String> = vocabulary
        .frequent
        .iter()
        .chain(&vocabulary.mid)
        .chain(&vocabulary.rare)
        .collect();
    rows.ns_per_op("text.count_us", &words, |w| prim::fm_count(i, w.as_bytes()));
    if let Some(ns) = rows.get("text.count_us").copied() {
        rows.put("text.count_us", scaled(&ns, 1e-3));
    }
    rows.ns_per_op("text.locate_ns", &bwt_rows, |&r| prim::locate_row(i, r));
    rows.ns_per_op("text.extract_ns_per_byte", &ids, |&d| {
        prim::get_text(i, d).len()
    });
    if let Some(per_text) = rows.get("text.extract_ns_per_byte").copied() {
        let mean_len = (extracted as f64 / ids.len().max(1) as f64).max(1.0);
        rows.put(
            "text.extract_ns_per_byte",
            scaled(&per_text, 1.0 / mean_len),
        );
    }

    let per_call =
        |rows: &mut Rows, name: &str, patterns: &[Vec<u8>], f: &dyn Fn(&[u8]) -> usize| {
            if patterns.is_empty() {
                return;
            }
            let samples: Vec<f64> = times_us(5, &mut || {
                for p in patterns {
                    std::hint::black_box(f(p));
                }
            })
            .iter()
            .map(|us| us / patterns.len() as f64)
            .collect();
            rows.put_samples(name, &samples);
        };
    let bytes_of = |band: &[String]| {
        band.iter()
            .take(8)
            .map(|w| w.as_bytes().to_vec())
            .collect::<Vec<_>>()
    };
    per_call(
        rows,
        "text.contains_rare_us",
        &bytes_of(&vocabulary.rare),
        &|p| prim::contains(i, p),
    );
    per_call(
        rows,
        "text.contains_frequent_us",
        &bytes_of(&vocabulary.frequent),
        &|p| prim::contains(i, p),
    );
    let whole: Vec<Vec<u8>> = ids
        .iter()
        .take(32)
        .map(|&d| prim::get_text(i, d))
        .filter(|t| !t.is_empty())
        .collect();
    let prefixes: Vec<Vec<u8>> = whole.iter().map(|t| t[..t.len().min(3)].to_vec()).collect();
    per_call(rows, "text.starts_with_us", &prefixes, &|p| {
        prim::starts_with(i, p)
    });
    per_call(rows, "text.equals_us", &whole, &|p| prim::equals(i, p));

    if let Some(word) = vocabulary.mid.first() {
        if let Some((_, scanned)) = prim::scan_contains(i, word.as_bytes()) {
            let samples = rate(5, scanned as f64 / 1e6, || {
                prim::scan_contains(i, word.as_bytes())
            });
            rows.put_samples("text.scan_mb_per_s", &samples);
        }
    }
}

/// `xml.parse_mb_per_s` and `core.*`.
fn core_rows(x: &Built, slots: &[Built; 4], rows: &mut Rows) -> Result<(), String> {
    let off = &mut Tracer::off();
    let mb = x.xml.len() as f64 / 1e6;
    rows.put_samples(
        "xml.parse_mb_per_s",
        &rate(5, mb, || sut::parse_xml(&x.xml, &mut Tracer::off(), 0)),
    );
    // Construction alone: the parse happens outside the timed call.
    let mut build = Vec::new();
    for _ in 0..3 {
        let doc = sut::parse_xml(&x.xml, off, 0)?;
        let start = Instant::now();
        std::hint::black_box(sut::build_from_parsed(doc, off, 0));
        build.push(mb / start.elapsed().as_secs_f64());
    }
    rows.put_samples("core.build_from_parsed_mb_per_s", &build);

    let (mut parse, mut compile, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
    for query in sut::catalogue() {
        let index = &slots[query.corpus.slot()].index;
        sut::prepare(index, query.xpath)?;
        parse.push(median_us(5, || {
            sut::parse_query(index, query.xpath, &mut Tracer::off(), 0)
        }));
        // `compile_query` parses outside its span; time the span's share.
        let mut t = Tracer::on(8);
        let mut spans = Vec::new();
        for _ in 0..5 {
            t.clear();
            sut::compile_query(index, query.xpath, &mut t, 0)?;
            spans.extend(
                t.spans()
                    .first()
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3),
            );
        }
        compile.extend(stats::median(&spans));
        prepare.push(median_us(5, || sut::prepare(index, query.xpath)));
    }
    geomean_row(rows, "core.parse_us", &parse);
    geomean_row(rows, "core.compile_us", &compile);
    geomean_row(rows, "core.prepare_us", &prepare);

    let mut file = Vec::new();
    sut::save(&x.index, &mut file, off, 0)?;
    let ms = |samples: Vec<f64>| samples.iter().map(|us| us / 1e3).collect::<Vec<_>>();
    rows.put_samples(
        "core.save_ms",
        &ms(times_us(5, &mut || {
            let mut out = Vec::with_capacity(file.len());
            let _ = sut::save(&x.index, &mut out, &mut Tracer::off(), 0);
        })),
    );
    rows.put_samples(
        "core.load_ms",
        &ms(times_us(5, &mut || {
            sut::load(&mut file.as_slice(), &mut Tracer::off(), 0)
        })),
    );
    rows.put_samples(
        "core.load_verified_deep_ms",
        &ms(times_us(2, &mut || {
            sut::load_verified_deep(&mut file.as_slice())
        })),
    );
    rows.put_samples(
        "core.verify_quick_ms",
        &ms(times_us(5, &mut || sut::verify_quick(&x.index))),
    );

    let items = "/site/regions/*/item";
    let bytes = sut::serialize_query(&x.index, items)? as f64;
    rows.put_samples(
        "core.serialize_mb_per_s",
        &rate(3, bytes / 1e6, || sut::serialize_query(&x.index, items)),
    );
    Ok(())
}

/// `xpath.*`: every catalogue query in every mode, then the groupings.
fn xpath_rows(
    slots: &[Built; 4],
    vocabulary: &Vocabulary,
    rng: &mut Rng,
    rows: &mut Rows,
) -> Result<Vec<PerQuery>, String> {
    let off = &mut Tracer::off();
    let mut table: Vec<PerQuery> = Vec::new();
    let mut measure =
        |id: &str, index: &Index, xpath: &str, modes: &[Mode]| -> Result<(), String> {
            let prepared = sut::prepare(index, xpath)?;
            for &mode in modes {
                let ran = sut::run(&prepared, index, mode, off, 0);
                let us = median_us(3, || {
                    sut::run(&prepared, index, mode, &mut Tracer::off(), 0)
                });
                table.push(PerQuery {
                    id: id.to_string(),
                    mode,
                    strategy: sut::strategy(&prepared),
                    count: ran.count,
                    visited: ran.visited,
                    marked: ran.marked,
                    us,
                });
            }
            Ok(())
        };
    for query in sut::catalogue() {
        measure(
            query.id,
            &slots[query.corpus.slot()].index,
            query.xpath,
            &Mode::ALL,
        )?;
    }
    // The catalogue has no keyword predicate; three `ft:` queries on the
    // Medline slot give the text-first strategy its row.
    let medline = &slots[Corpus::Medline.slot()].index;
    let steps = ["//Article", "//AbstractText", "//MedlineCitation"];
    for (n, (_, search)) in search_shapes(vocabulary, rng)
        .into_iter()
        .take(3)
        .enumerate()
    {
        measure(
            &format!("F{:02}", n + 1),
            medline,
            &search.as_xpath(steps[n]),
            &[Mode::Count],
        )?;
    }

    let of = |keep: &dyn Fn(&PerQuery) -> bool| -> Vec<f64> {
        table.iter().filter(|q| keep(q)).map(|q| q.us).collect()
    };
    for (strategy, row) in [
        ("top-down", "topdown"),
        ("bottom-up", "bottomup"),
        ("direct", "direct"),
        ("text-first", "textfirst"),
    ] {
        let name = format!("xpath.{row}.geomean_us");
        geomean_row(
            rows,
            &name,
            &of(&|q| q.strategy == strategy && q.mode == Mode::Count),
        );
    }
    let catalogued = |q: &PerQuery| !q.id.starts_with('F');
    for mode in Mode::ALL {
        let name = format!("xpath.{}.geomean_us", mode.name());
        geomean_row(rows, &name, &of(&|q| q.mode == mode && catalogued(q)));
    }
    let nodes_runs: Vec<&PerQuery> = table.iter().filter(|q| q.mode == Mode::Nodes).collect();
    let results = nodes_runs.iter().map(|q| q.count).sum::<u64>().max(1) as f64;
    let visited = nodes_runs.iter().map(|q| q.visited).sum::<u64>() as f64;
    let marked = nodes_runs.iter().map(|q| q.marked).sum::<u64>() as f64;
    rows.put(
        "xpath.visited_per_result",
        Summary {
            n: nodes_runs.len(),
            ..Summary::exact(visited / results)
        },
    );
    rows.put(
        "xpath.marked_per_result",
        Summary {
            n: nodes_runs.len(),
            ..Summary::exact(marked / results)
        },
    );
    for mode in [Mode::Count, Mode::Nodes] {
        for set in ["X", "T", "M", "W", "O"] {
            let times = of(&|q| q.mode == mode && q.id.starts_with(set));
            let name = format!("xpath.set.{set}.{}_us", mode.name());
            rows.put(
                name,
                Summary {
                    n: times.len(),
                    ..Summary::exact(times.iter().sum())
                },
            );
        }
    }
    for (id, mode) in SIGNATURE_QUERIES {
        if let Some(q) = table.iter().find(|q| q.id == *id && q.mode.name() == *mode) {
            rows.put(
                format!("xpath.q.{id}.{mode}_us"),
                Summary {
                    n: 3,
                    ..Summary::exact(q.us)
                },
            );
        }
    }
    Ok(table)
}

/// `search.*`, on the Medline slot.
fn search_rows(i: &Index, vocabulary: &Vocabulary, rng: &mut Rng, rows: &mut Rows) {
    let (mut prepare, mut lift) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::on(8);
    for (shape, search) in search_shapes(vocabulary, rng).into_iter().take(5) {
        let samples: Vec<f64> = times_us(5, &mut || sut::search_whole(i, &search))
            .iter()
            .map(|us| us / 1e3)
            .collect();
        rows.put_samples(format!("search.{shape}_ms"), &samples);
        let (mut p, mut l) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            tracer.clear();
            sut::search(i, &search, &mut tracer, 0);
            for span in tracer.spans() {
                let us = (span.end_ns - span.start_ns) as f64 / 1e3;
                if span.name == "search.prepare" {
                    p.push(us)
                } else {
                    l.push(us)
                }
            }
        }
        prepare.extend(stats::median(&p));
        lift.extend(stats::median(&l));
    }
    geomean_row(rows, "search.prepare_us", &prepare);
    geomean_row(rows, "search.lift_us", &lift);
}

/// `collection.*` and `engine.*`: a probe-size XMark collection, the batch
/// and collection lanes, and a daemon over the XMark and Medline slots.
fn engine_rows(
    x: &Built,
    m: &Built,
    env: &Env,
    rng: &mut Rng,
    rows: &mut Rows,
) -> Result<(), String> {
    let off = &mut Tracer::off();
    let ms = |samples: Vec<f64>| samples.iter().map(|us| us / 1e3).collect::<Vec<_>>();
    let scale = env.sizes.probe.0;
    let manifest = env.dir.join("layers-build.sxsic");
    let xml = segment_xml(scale, env.sizes.segments, env.seed);
    let xml_mb = xml.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let mut build = Vec::new();
    for _ in 0..3 {
        let docs = xml
            .iter()
            .enumerate()
            .map(|(i, xml)| Ok((format!("doc{i}"), sut::build(xml)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let start = Instant::now();
        sut::collection_build(&manifest, docs, off, 0)?;
        build.push(xml_mb / start.elapsed().as_secs_f64());
    }
    rows.put_samples("collection.build_mb_per_s", &build);
    rows.put_samples(
        "collection.open_ms",
        &ms(times_us(5, &mut || sut::collection_open(&manifest))),
    );
    // The first query after open pays the lazy load of every segment.
    let mut first_touch = Vec::new();
    for _ in 0..3 {
        let coll = sut::collection_open(&manifest)?;
        let start = Instant::now();
        lanes::collection_count(&coll, "//item", 1)?;
        first_touch.push(start.elapsed().as_secs_f64() * 1e3);
    }
    rows.put_samples("collection.first_touch_ms", &first_touch);

    let coll = sut::collection_open(&manifest)?;
    let fan_out = [
        "/site/regions/*/item",
        "//listitem//keyword",
        "/site/people/person[ phone or homepage]/name",
        "//*",
    ];
    let sweep = |threads: Option<usize>| -> Result<(), String> {
        for xpath in fan_out {
            match threads {
                Some(threads) => lanes::collection_count(&coll, xpath, threads)?,
                None => lanes::collection_count_sequential(&coll, xpath)?,
            };
        }
        Ok(())
    };
    sweep(Some(1))?;
    rows.put_samples(
        "engine.collection.t1_ms",
        &ms(times_us(3, &mut || sweep(Some(1)))),
    );
    rows.put_samples(
        "engine.collection.t2_ms",
        &ms(times_us(3, &mut || sweep(Some(2)))),
    );
    rows.put_samples(
        "engine.collection.sequential_ms",
        &ms(times_us(3, &mut || sweep(None))),
    );
    let shapes = search_shapes(&Vocabulary::of(&x.xml), rng);
    if let Some((_, search)) = shapes.get(1) {
        lanes::collection_search(&coll, search, 1)?;
        rows.put_samples(
            "engine.search_collection_ms",
            &ms(times_us(3, &mut || {
                lanes::collection_search(&coll, search, 1)
            })),
        );
    }
    drop(coll);
    for i in 0..env.sizes.segments {
        let _ = std::fs::remove_file(env.dir.join(format!("layers-build.d{i}.sxsi")));
    }
    let _ = std::fs::remove_file(&manifest);

    let xmark: Vec<&str> = sut::catalogue()
        .iter()
        .filter(|q| q.set() == 'X')
        .map(|q| q.xpath)
        .collect();
    let per_query = xmark.len().max(1) as f64;
    let compile: Vec<f64> = times_us(5, &mut || lanes::batch_compile(&x.index, &xmark))
        .iter()
        .map(|us| us / per_query)
        .collect();
    rows.put_samples("engine.batch.compile_us", &compile);
    let batch = lanes::batch_compile(&x.index, &xmark)?;
    for threads in [1, 2] {
        let qps = rate(5, per_query, || lanes::batch_run(&x.index, &batch, threads));
        rows.put_samples(format!("engine.batch.t{threads}_qps"), &qps);
    }
    let rendered = lanes::batch_nodes(&x.index, "/site/regions/*/item")?;
    rows.us_per_call("engine.render_us", 5, || {
        lanes::render(&x.index, &rendered, &mut Tracer::off(), 0)
    });

    let mut daemon = Serve::from_parts(env, x.clone(), m.clone(), scale, "layers")?;
    let mut check = Check::default();
    daemon.check_pool(&mut check);
    let served = if check.failed == 0 {
        daemon.server_rows(rows)
    } else {
        Err(check.problems.join("; "))
    };
    let stopped = Box::new(daemon).teardown();
    served.and(stopped)
}
