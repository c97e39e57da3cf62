//! `serve`: an in-process daemon on a Unix socket serving `x` (XMark), `m`
//! (Medline) and `xc` (an XMark collection), and two closed-loop client
//! connections replaying one seeded Zipf(1) sequence over a pool of distinct
//! requests four times the size of the result cache.
//!
//! One *operation* is one request; its kind is `<class>.hit` or
//! `<class>.miss`, where the class is target × output shape (or
//! `search.<target>`), so that the cached and the uncached path weigh the
//! same in `op_geomean_us`.  One *pass* is one replay of a
//! client's whole sequence.  Replaying a fixed sequence makes every pass the
//! same work in the same order, so pass times are comparable; the caches
//! are in the steady state the previous replay left.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use super::ingest::segment_xml;
use super::queries::search_shapes;
use super::{check_against_oracle, Built, Check, Env, Footprint, Workload};
use crate::load::{zipf_counts, Fnv, Rng, Vocabulary};
use crate::measure::{median_us, Recorder, Rows};
use crate::stats::Summary;
use crate::sut::{self, Corpus, Daemon, Index, Mode, Node, Output, Target};
use crate::trace::Tracer;

const TARGETS: [&str; 3] = ["x", "m", "xc"];
const CACHES: [&str; 3] = ["result_cache", "plan_cache", "search_cache"];

/// One request of the pool.
struct Request {
    payload: Vec<u8>,
    /// Index into [`classes`].
    class: usize,
    /// For the staged replay: the XPath request as `(target, output,
    /// xpath)`, absent for searches.
    xpath: Option<(usize, Output, &'static str)>,
    search: Option<(usize, sut::Search)>,
    /// The body the daemon must answer with, rendered in set-up from the
    /// library's own answers ([`Answers`]).
    expected: String,
}

/// The independent side of the byte-for-byte comparison: what a target must
/// answer, rendered here in the line formats of `docs/guide.md` and
/// `docs/search.md` from `Prepared::run` and `PreparedFt` on the target's
/// documents — never through the daemon, its caches or the engine's
/// renderers.
struct Answers {
    /// Per target, its documents in order as (display name, index): the
    /// served id for `x` and `m`, `doc0`… for the collection.
    targets: [Vec<(String, Arc<Index>)>; 3],
    /// Every match of an XPath on a target as (document, node), document by
    /// document, in document order; windows are slices of it.
    matches: HashMap<(usize, &'static str), Vec<(usize, Node)>>,
}

impl Answers {
    fn preorder(&self, target: usize, (doc, node): (usize, Node)) -> usize {
        sut::preorder(&self.targets[target][doc].1, node)
    }

    fn query_body(
        &mut self,
        target: usize,
        output: Output,
        limit: Option<u64>,
        offset: u64,
        xpath: &'static str,
    ) -> Result<String, String> {
        if !self.matches.contains_key(&(target, xpath)) {
            let mut all = Vec::new();
            for (doc, (_, index)) in self.targets[target].iter().enumerate() {
                let prepared = sut::prepare(index, xpath)?;
                let nodes = sut::run(&prepared, index, Mode::Nodes, &mut Tracer::off(), 0).nodes;
                all.extend(nodes.unwrap_or_default().into_iter().map(|n| (doc, n)));
            }
            self.matches.insert((target, xpath), all);
        }
        let all = &self.matches[&(target, xpath)];
        let start = (offset as usize).min(all.len());
        let end = limit.map_or(all.len(), |l| (start + l as usize).min(all.len()));
        let (window, more) = (
            &all[start..end],
            if end < all.len() {
                " (more results exist)"
            } else {
                ""
            },
        );
        Ok(match output {
            Output::Count => format!("{xpath}: {}{more}\n", window.len()),
            Output::Exists => format!("{xpath}: {}\n", !window.is_empty()),
            Output::Nodes => {
                // Only a collection qualifies a node with its document.
                let labels: Vec<String> = window
                    .iter()
                    .map(|&at| match target {
                        2 => format!(
                            "{}:{}",
                            self.targets[target][at.0].0,
                            self.preorder(target, at)
                        ),
                        _ => self.preorder(target, at).to_string(),
                    })
                    .collect();
                format!(
                    "{xpath}: {} nodes [{}]{more}\n",
                    window.len(),
                    labels.join(", ")
                )
            }
            Output::Serialize => {
                let mut body = format!("{xpath}:{more}\n");
                for &(doc, node) in window {
                    body.push_str(&sut::subtree_xml(&self.targets[target][doc].1, node));
                    body.push('\n');
                }
                body
            }
        })
    }

    /// The ranked list: each document's hits (best first, ties in document
    /// order), merged by score with ties in document order, cut at `limit`.
    fn search_body(&self, target: usize, search: &sut::Search, limit: usize) -> String {
        let mut hits = Vec::new();
        for (doc, (_, index)) in self.targets[target].iter().enumerate() {
            let ranked = sut::search(index, search, &mut Tracer::off(), 0);
            hits.extend(ranked.into_iter().map(|hit| (doc, hit)));
        }
        hits.sort_by(|a, b| b.1.score.total_cmp(&a.1.score));
        let labels: Vec<String> = hits
            .iter()
            .take(limit)
            .map(|&(doc, hit)| {
                format!(
                    "{}:{} score={:.3}",
                    self.targets[target][doc].0,
                    self.preorder(target, (doc, hit.node)),
                    hit.score
                )
            })
            .collect();
        let terms: Vec<String> = search.terms.iter().map(|t| format!("\"{t}\"")).collect();
        format!(
            "ft:{}({}): {} hits [{}]{}\n",
            search.kind.name(),
            terms.join(", "),
            labels.len(),
            labels.join(", "),
            if hits.len() > limit {
                " (more results exist)"
            } else {
                ""
            }
        )
    }
}

fn classes() -> Vec<String> {
    let mut out = Vec::new();
    for target in TARGETS {
        out.extend(Output::ALL.iter().map(|o| format!("{target}.{}", o.name())));
    }
    out.extend(TARGETS.iter().map(|t| format!("search.{t}")));
    out
}

/// The state of the serve workload after set-up.
pub struct Serve {
    env: Env,
    singles: [Built; 2],
    segments: Footprint,
    files: Vec<PathBuf>,
    daemon: Daemon,
    pool: Vec<Request>,
    /// Per client: the pool positions it requests, in order.  Both clients
    /// replay one sequence, the second from its middle, so that a pass is
    /// the same work whichever client runs it.
    sequences: [Vec<usize>; 2],
    /// Hit rates of the three LRUs over the last measured window.
    window_hit_rates: Vec<(String, f64)>,
}

impl Serve {
    /// Generates and indexes `x`, `m` and the collection's documents, writes
    /// the collection, starts the daemon and draws the request pool.
    pub fn setup(env: &Env) -> Result<Serve, String> {
        let x = Built::new(Corpus::XMark, env.sizes.serve.0, env.seed)?;
        let m = Built::new(Corpus::Medline, env.sizes.serve.1 as f64, env.seed)?;
        Serve::from_parts(env, x, m, env.sizes.serve.0, "serve")
    }

    /// The same, over corpora that already exist; the collection holds an
    /// XMark corpus of `collection_scale` in total.
    pub fn from_parts(
        env: &Env,
        x: Built,
        m: Built,
        collection_scale: f64,
        stem: &str,
    ) -> Result<Serve, String> {
        let manifest = env.dir.join(format!("{stem}.sxsic"));
        let mut segments = Footprint::default();
        let mut docs = Vec::new();
        for (i, xml) in segment_xml(collection_scale, env.sizes.segments, env.seed)
            .iter()
            .enumerate()
        {
            let index = sut::build(xml)?;
            segments = segments
                + Footprint {
                    heap: sut::heap_bytes(&index),
                    disk: 0,
                    xml: xml.len(),
                };
            docs.push((format!("doc{i}"), index));
        }
        let coll = sut::collection_build(&manifest, docs, &mut Tracer::off(), 0)?;
        let answers = Answers {
            targets: [
                vec![("x".into(), x.index.clone())],
                vec![("m".into(), m.index.clone())],
                coll.docs()?,
            ],
            matches: HashMap::new(),
        };
        let mut files = vec![manifest.clone()];
        for i in 0..env.sizes.segments {
            let segment = env.dir.join(format!("{stem}.d{i}.sxsi"));
            segments.disk += std::fs::metadata(&segment).map_or(0, |m| m.len() as usize);
            files.push(segment);
        }
        let socket = env.dir.join(format!("{stem}.sock"));
        let daemon = Daemon::start(
            vec![
                ("x".into(), Target::Single(x.index.clone())),
                ("m".into(), Target::Single(m.index.clone())),
                ("xc".into(), Target::Collection(coll)),
            ],
            &socket,
        )?;
        // Connecting proves the daemon accepts before set-up is over.
        drop(daemon.connect()?);
        let pool = make_pool(&x, &m, answers, env.seed, env.sizes.pool)?;
        // The pool is in seeded random order, so a request's position is its
        // Zipf rank.
        let mut first: Vec<usize> = zipf_counts(pool.len(), env.sizes.block)
            .iter()
            .enumerate()
            .flat_map(|(rank, &count)| std::iter::repeat_n(rank, count))
            .collect();
        Rng::new(env.seed, 100).shuffle(&mut first);
        let mut second = first.clone();
        second.rotate_left(first.len() / 2);
        let sequences = [first, second];
        Ok(Serve {
            env: env.clone(),
            singles: [x, m],
            segments,
            files,
            daemon,
            pool,
            sequences,
            window_hit_rates: Vec::new(),
        })
    }

    fn cache_counters(&self) -> Vec<(f64, f64)> {
        CACHES
            .iter()
            .map(|cache| {
                let stat = |suffix: &str| {
                    self.daemon
                        .stat(&format!("{cache}_{suffix}"))
                        .unwrap_or(0.0)
                };
                (stat("hits"), stat("misses"))
            })
            .collect()
    }

    /// The pool half of the correctness gate: the daemon answers every
    /// request of the pool, without a socket, with exactly the body set-up
    /// rendered from the library's answers.
    pub fn check_pool(&self, check: &mut Check) {
        for request in &self.pool {
            let reply = self.daemon.handle(&request.payload, &mut Tracer::off(), 0);
            check.expect(reply.ok && reply.body == request.expected, || {
                format!(
                    "{:?} answered {:?}, the library gives {:?}",
                    String::from_utf8_lossy(&request.payload),
                    reply.body,
                    request.expected
                )
            });
            check.digest.bytes(&request.payload);
            check.digest.bytes(reply.body.as_bytes());
        }
    }

    /// The `engine.server.*` layer rows: a `ping` round trip, the same
    /// request handled without a socket as a miss and then as a hit, and
    /// the hit rates of a short replay.
    pub fn server_rows(&mut self, rows: &mut Rows) -> Result<(), String> {
        let mut conn = self.daemon.connect()?;
        rows.put_samples(
            "engine.server.frame_rtt_us",
            &(0..5)
                .map(|_| median_us(400, || conn.ping()))
                .collect::<Vec<_>>(),
        );
        drop(conn);
        let (mut miss, mut hit) = (Vec::new(), Vec::new());
        let off = &mut Tracer::off();
        let daemon = &self.daemon;
        // Requests no client has sent (the pool's offsets stay below 40), so
        // the first arrival is a miss and the second a hit, whatever the
        // caches hold.
        let fresh = self
            .pool
            .iter()
            .filter_map(|r| r.xpath)
            .take(96)
            .enumerate()
            .map(|(i, (target, output, xpath))| {
                sut::query_payload(TARGETS[target], output, Some(10), 40 + i as u64, xpath)
            });
        for payload in fresh {
            let mut timed = || {
                let start = std::time::Instant::now();
                let reply = daemon.handle(&payload, off, 0);
                (start.elapsed().as_nanos() as f64 / 1e3, reply.hit)
            };
            let ((first, first_hit), (second, second_hit)) = (timed(), timed());
            if !first_hit && second_hit {
                miss.push(first);
                hit.push(second);
            }
        }
        rows.put_samples("engine.server.handle_miss_us", &miss);
        rows.put_samples("engine.server.handle_hit_us", &hit);
        self.measure(Duration::from_millis(1500), 1, false)?;
        self.layer_overrides(rows);
        Ok(())
    }
}

/// The pool of `n` distinct requests: half XPath on `x`/`m`, a fifth XPath
/// on `xc`, the rest ranked searches, in seeded random order (the order is
/// the Zipf rank order).
///
/// Which queries and output shapes the pool holds does not depend on the
/// seed — every catalogue query of the target in every shape, round after
/// round with new window offsets until the quota is full — so two seeds
/// serve the same mix of cheap and expensive requests; the seed draws the
/// offsets, the search terms and the ranks.  X13–X17 (`//*//*//*//*` and
/// its kin) are left out: no client asks a daemon for every node four
/// times over, and a count of them costs a hundred median requests.
fn make_pool(
    x: &Built,
    m: &Built,
    mut answers: Answers,
    seed: u64,
    n: usize,
) -> Result<Vec<Request>, String> {
    let mut rng = Rng::new(seed, 20);
    let class_names = classes();
    let class_of = |name: String| class_names.iter().position(|c| *c == name).unwrap_or(0);
    let crash_tests = ["X13", "X14", "X15", "X16", "X17"];
    let catalogue: Vec<_> = sut::catalogue()
        .into_iter()
        .filter(|q| !crash_tests.contains(&q.id))
        .collect();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut pool: Vec<Request> = Vec::new();

    let mut xpath_requests = |target: usize,
                              corpus: Corpus,
                              quota: usize,
                              pool: &mut Vec<Request>|
     -> Result<(), String> {
        let goal = pool.len() + quota;
        for round in 0u64.. {
            for query in catalogue.iter().filter(|q| q.corpus == corpus) {
                for output in Output::ALL {
                    let (limit, offset) = match output {
                        Output::Count | Output::Exists if round > 0 => continue,
                        Output::Count | Output::Exists => (None, 0),
                        Output::Nodes => (Some(10), round * 8 + rng.below(8) as u64),
                        Output::Serialize => (Some(3), round * 8 + rng.below(8) as u64),
                    };
                    let payload =
                        sut::query_payload(TARGETS[target], output, limit, offset, query.xpath);
                    if pool.len() < goal && seen.insert(payload.clone()) {
                        pool.push(Request {
                            payload,
                            class: class_of(format!("{}.{}", TARGETS[target], output.name())),
                            xpath: Some((target, output, query.xpath)),
                            search: None,
                            expected: answers.query_body(
                                target,
                                output,
                                limit,
                                offset,
                                query.xpath,
                            )?,
                        });
                    }
                }
            }
            if pool.len() >= goal || round > 64 {
                break;
            }
        }
        Ok(())
    };
    xpath_requests(0, Corpus::XMark, n / 4, &mut pool)?;
    xpath_requests(1, Corpus::Medline, n / 4, &mut pool)?;
    xpath_requests(2, Corpus::XMark, n / 5, &mut pool)?;

    let vocabularies = [Vocabulary::of(&x.xml), Vocabulary::of(&m.xml)];
    let mut attempts = 0;
    while pool.len() < n && attempts < n {
        attempts += 1;
        // Six shapes with fresh terms, each sent to the three targets in turn.
        for (i, (_, search)) in search_shapes(&vocabularies[attempts % 2], &mut rng)
            .into_iter()
            .enumerate()
        {
            let target = if attempts % 2 == 1 { 1 } else { [0, 2][i % 2] };
            let payload = sut::search_payload(TARGETS[target], &search, 10);
            if pool.len() < n && seen.insert(payload.clone()) {
                pool.push(Request {
                    payload,
                    class: class_of(format!("search.{}", TARGETS[target])),
                    xpath: None,
                    expected: answers.search_body(target, &search, 10),
                    search: Some((target, search)),
                });
            }
        }
    }
    rng.shuffle(&mut pool);
    Ok(pool)
}

impl Workload for Serve {
    fn kinds(&self) -> Vec<String> {
        let classes = classes();
        classes
            .iter()
            .map(|c| format!("{c}.hit"))
            .chain(classes.iter().map(|c| format!("{c}.miss")))
            .collect()
    }

    fn text_kinds(&self) -> Vec<bool> {
        // Per kind, not per request: a hit does no text work; a miss class
        // counts as text when it is a search or runs on Medline.
        let classes = classes();
        classes
            .iter()
            .map(|_| false)
            .chain(
                classes
                    .iter()
                    .map(|c| c.starts_with("search.") || c.starts_with("m.")),
            )
            .collect()
    }

    /// A kind is a class of requests, cheap and expensive ones: its 10th
    /// percentile would be its cheapest request, not a quiet host.
    fn kind_percentile(&self) -> f64 {
        50.0
    }

    fn inputs_digest(&self) -> u64 {
        let mut digest = Fnv::default();
        self.pool
            .iter()
            .for_each(|request| digest.bytes(&request.payload));
        self.sequences
            .iter()
            .flatten()
            .for_each(|&position| digest.u64(position as u64));
        digest.0
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        for built in &self.singles {
            let units = built.units / self.env.sizes.oracle_divisor;
            check_against_oracle(&mut check, built.corpus, units, self.env.seed, false);
        }
        self.check_pool(&mut check);
        check
    }

    fn measure(
        &mut self,
        window: Duration,
        warmup: usize,
        traced: bool,
    ) -> Result<Vec<Recorder>, String> {
        let before = self.cache_counters();
        let daemon = &self.daemon;
        let (pool, classes) = (&self.pool, classes().len());
        let kinds = 2 * classes;
        let recorders = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2u32)
                .zip(&self.sequences)
                .map(|(client, sequence)| {
                    scope.spawn(move || -> Result<Recorder, String> {
                        let mut conn = daemon.connect()?;
                        let tracer = if traced {
                            Tracer::on(1 << 20)
                        } else {
                            Tracer::off()
                        };
                        let mut recorder = Recorder::new(kinds, tracer);
                        let mut request_id = client << 31;
                        recorder.drive(warmup, window, |rec| {
                            for &position in sequence {
                                let request = &pool[position];
                                request_id = request_id.wrapping_add(1);
                                rec.op(|t| {
                                    let reply = conn.request(&request.payload, t, request_id);
                                    let kind = if reply.hit {
                                        request.class
                                    } else {
                                        classes + request.class
                                    };
                                    (kind, reply.ok && reply.body == request.expected)
                                });
                            }
                        });
                        Ok(recorder)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| {
                    c.join()
                        .map_err(|_| "a client thread panicked".to_string())?
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        self.window_hit_rates = CACHES
            .iter()
            .zip(before.iter().zip(self.cache_counters()))
            .map(|(cache, (before, after))| {
                let (hits, misses) = (after.0 - before.0, after.1 - before.1);
                (
                    cache.to_string(),
                    if hits + misses > 0.0 {
                        hits / (hits + misses)
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        Ok(recorders)
    }

    fn staged(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        let daemon = &self.daemon;
        let mut conn = daemon.connect()?;
        for (i, request) in self.pool.iter().rev().take(64).enumerate() {
            let req = i as u32;
            tracer.span("op", req, |t| -> Result<(), String> {
                // Without a socket (likely a miss, then surely a hit), over
                // the socket, then the stages of the miss on their own.
                daemon.handle(&request.payload, t, req);
                daemon.handle(&request.payload, t, req);
                conn.request(&request.payload, t, req);
                if let Some((target @ (0 | 1), output, xpath)) = request.xpath {
                    let index = &self.singles[target].index;
                    sut::parse_query(index, xpath, t, req)?;
                    sut::compile_query(index, xpath, t, req)?;
                    let prepared = sut::prepare(index, xpath)?;
                    let mode = match output {
                        Output::Count => Mode::Count,
                        Output::Exists => Mode::Exists,
                        Output::Nodes | Output::Serialize => Mode::Limit10,
                    };
                    sut::run(&prepared, index, mode, t, req);
                    let rendered = sut::lanes::batch_nodes(index, xpath)?;
                    sut::lanes::render(index, &rendered, t, req);
                }
                if let Some((target @ (0 | 1), search)) = &request.search {
                    sut::search(&self.singles[*target].index, search, t, req);
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    fn footprint(&self) -> Result<Footprint, String> {
        Ok(self.singles[0].footprint()? + self.singles[1].footprint()? + self.segments)
    }

    fn extra_rows(&self, recorders: &[Recorder], rows: &mut Rows) {
        let us = |ns: &u64| *ns as f64 / 1e3;
        let classes = classes().len();
        let of = |kinds: std::ops::Range<usize>| -> Vec<f64> {
            recorders
                .iter()
                .flat_map(|r| r.by_kind[kinds.clone()].iter().flatten().map(us))
                .collect()
        };
        let (hits, misses) = (of(0..classes), of(classes..2 * classes));
        let total = (hits.len() + misses.len()).max(1) as f64;
        rows.put(
            "response_hit_rate",
            Summary::exact(hits.len() as f64 / total),
        );
        rows.put_samples("rtt_hit_p50_us", &hits);
        rows.put_samples("rtt_miss_p50_us", &misses);
        for (cache, rate) in &self.window_hit_rates {
            rows.put(format!("{cache}_hit_rate"), Summary::exact(*rate));
        }
    }

    fn built(&self, corpus: Corpus) -> Option<Built> {
        self.singles.iter().find(|b| b.corpus == corpus).cloned()
    }

    fn layer_overrides(&self, rows: &mut Rows) {
        for (cache, rate) in &self.window_hit_rates {
            rows.put(
                format!("engine.server.{cache}_hit_rate"),
                Summary::exact(*rate),
            );
        }
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        let stopped = self.daemon.stop();
        for file in &self.files {
            let _ = std::fs::remove_file(file);
        }
        stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Sizes;

    #[test]
    fn the_gate_rejects_a_body_the_library_does_not_give() {
        // Tests run in the package directory; a relative path keeps the
        // socket's path short.
        let dir = PathBuf::from(format!(
            "../.bench_build/perfbench-out/unit-serve-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let env = Env {
            seed: 9,
            sizes: Sizes::TINY,
            dir: dir.clone(),
        };
        let mut serve = Serve::setup(&env).unwrap();
        let mut clean = Check::default();
        serve.check_pool(&mut clean);
        assert_eq!(clean.failed, 0, "{:?}", clean.problems);
        assert_eq!(clean.attempted, serve.pool.len() as u64);

        serve.pool[0].expected.push(' ');
        let mut check = Check::default();
        serve.check_pool(&mut check);
        assert_eq!(check.failed, 1, "{:?}", check.problems);

        Box::new(serve).teardown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
