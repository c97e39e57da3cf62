//! `tree-nav` and `text-search`: catalogue sweeps through statements
//! prepared in set-up, plus (text-search) a pass of ranked keyword searches.
//!
//! One *operation* is one run of one (query, mode) pair or one search; one
//! *pass* runs every operation once: the `Count` sweep, the `Nodes` sweep,
//! then the searches.  Nothing is cached between runs, so every operation
//! does its full work every time.  One caller per core runs passes over the
//! shared indexes (see [`crate::measure::callers`]).

use std::time::Duration;

use super::{check_against_oracle, digest_nodes, Built, Check, Env, Footprint, Workload};
use crate::load::{Fnv, Rng, Vocabulary};
use crate::measure::{drive_callers, Recorder};
use crate::sut::{self, CatQuery, Corpus, FtKind, Mode, Prepared, Search};
use crate::trace::Tracer;

/// Which of the two query workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// XMark + Treebank, X/T/O queries, no text predicates.
    TreeNav,
    /// Medline + wiki, M/W/O queries and keyword searches.
    TextSearch,
}

enum What {
    Query {
        query: CatQuery,
        prepared: Prepared,
        mode: Mode,
    },
    Search(Search),
}

struct Op {
    label: String,
    side: usize,
    what: What,
    /// The answer's cardinality, fixed by [`Workload::check`].
    expected: u64,
    text: bool,
}

/// The state of a query workload after set-up.
pub struct Queries {
    env: Env,
    sides: Vec<Built>,
    ops: Vec<Op>,
}

/// The six search shapes of one search pass, with terms drawn from the
/// corpus's own words: `all` with 1, 2 and 4 terms, `any` with 2, a
/// 2-word phrase, and `all` with one frequent and one rare term.
pub fn search_shapes(vocabulary: &Vocabulary, rng: &mut Rng) -> Vec<(&'static str, Search)> {
    let v = vocabulary;
    let frequent = Vocabulary::draw(rng, &v.frequent, 2);
    let mid = Vocabulary::draw(rng, &v.mid, 2);
    let rare = Vocabulary::draw(rng, &v.rare, 1);
    let word = |band: &[String], i: usize| {
        band.get(i)
            .or(band.first())
            .cloned()
            .unwrap_or_else(|| "the".into())
    };
    let (f0, f1, m0, m1, r0) = (
        word(&frequent, 0),
        word(&frequent, 1),
        word(&mid, 0),
        word(&mid, 1),
        word(&rare, 0),
    );
    let pair = if v.pairs.is_empty() {
        (f0.clone(), f1.clone())
    } else {
        rng.pick(&v.pairs).clone()
    };
    let make = |kind, terms: Vec<String>| Search { kind, terms };
    vec![
        ("all1", make(FtKind::All, vec![f0.clone()])),
        ("all2", make(FtKind::All, vec![f0.clone(), m0.clone()])),
        (
            "all4",
            make(FtKind::All, vec![f0.clone(), f1, m0.clone(), m1]),
        ),
        ("any2", make(FtKind::Any, vec![m0, r0.clone()])),
        ("phrase2", make(FtKind::Phrase, vec![pair.0, pair.1])),
        ("all2r", make(FtKind::All, vec![f0, r0])),
    ]
}

impl Queries {
    /// Generates the two corpora, indexes them and prepares every statement.
    pub fn setup(env: &Env, flavor: Flavor) -> Result<Queries, String> {
        let s = &env.sizes;
        let corpora = match flavor {
            Flavor::TreeNav => [(Corpus::XMark, s.nav.0), (Corpus::Treebank, s.nav.1 as f64)],
            Flavor::TextSearch => [
                (Corpus::Medline, s.text.0 as f64),
                (Corpus::Wiki, s.text.1 as f64),
            ],
        };
        let sides = corpora
            .iter()
            .map(|&(corpus, units)| Built::new(corpus, units, env.seed))
            .collect::<Result<Vec<_>, _>>()?;
        let mut ops = Vec::new();
        for mode in [Mode::Count, Mode::Nodes] {
            for query in sut::catalogue() {
                let Some(side) = sides.iter().position(|b| b.corpus == query.corpus) else {
                    continue;
                };
                let prepared = sut::prepare(&sides[side].index, query.xpath)?;
                let text = query.has_text_predicate()
                    || matches!(sut::strategy(&prepared), "bottom-up" | "text-first");
                ops.push(Op {
                    label: format!("{}.{}", query.id, mode.name()),
                    side,
                    what: What::Query {
                        query,
                        prepared,
                        mode,
                    },
                    expected: 0,
                    text,
                });
            }
        }
        if flavor == Flavor::TextSearch {
            // The search pass runs on Medline alone: on the wiki corpus's few
            // long texts one frequent-term search costs as much as the whole
            // M/W sweep, and the pass would be too long to repeat.
            for (side, built) in sides
                .iter()
                .enumerate()
                .filter(|(_, b)| b.corpus == Corpus::Medline)
            {
                let vocabulary = Vocabulary::of(&built.xml);
                let mut rng = Rng::new(env.seed, 10 + side as u64);
                for (shape, search) in search_shapes(&vocabulary, &mut rng) {
                    ops.push(Op {
                        label: format!("search.{}.{shape}", built.corpus.name()),
                        side,
                        what: What::Search(search),
                        expected: 0,
                        text: true,
                    });
                }
            }
        }
        Ok(Queries {
            env: env.clone(),
            sides,
            ops,
        })
    }

    fn pass(&self, rec: &mut Recorder, request: &mut u32) {
        for (kind, op) in self.ops.iter().enumerate() {
            let index = &self.sides[op.side].index;
            *request = request.wrapping_add(1);
            let req = *request;
            rec.op(|t| {
                let got = match &op.what {
                    What::Query { prepared, mode, .. } => {
                        sut::run(prepared, index, *mode, t, req).count
                    }
                    What::Search(search) => sut::search(index, search, t, req).len() as u64,
                };
                (kind, got == op.expected)
            });
        }
    }
}

impl Workload for Queries {
    fn kinds(&self) -> Vec<String> {
        self.ops.iter().map(|op| op.label.clone()).collect()
    }

    fn text_kinds(&self) -> Vec<bool> {
        self.ops.iter().map(|op| op.text).collect()
    }

    fn inputs_digest(&self) -> u64 {
        let mut digest = Fnv::default();
        self.sides
            .iter()
            .for_each(|side| digest.bytes(side.xml.as_bytes()));
        for op in &self.ops {
            digest.bytes(op.label.as_bytes());
            if let What::Search(search) = &op.what {
                search
                    .terms
                    .iter()
                    .for_each(|term| digest.bytes(term.as_bytes()));
            }
        }
        digest.0
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        for side in &self.sides {
            let units = side.units / self.env.sizes.oracle_divisor;
            check_against_oracle(&mut check, side.corpus, units, self.env.seed, false);
        }
        let off = &mut Tracer::off();
        for op in &mut self.ops {
            let index = &self.sides[op.side].index;
            match &op.what {
                What::Query {
                    query,
                    prepared,
                    mode,
                } => {
                    let nodes = sut::run(prepared, index, Mode::Nodes, off, 0)
                        .nodes
                        .unwrap_or_default();
                    op.expected = nodes.len() as u64;
                    // The four windows are checked (and digested) once per
                    // query, on its `Count` operation.
                    if *mode != Mode::Count {
                        continue;
                    }
                    let count = sut::run(prepared, index, Mode::Count, off, 0).count;
                    let exists = sut::run(prepared, index, Mode::Exists, off, 0).exists;
                    let first = sut::run(prepared, index, Mode::Limit10, off, 0)
                        .nodes
                        .unwrap_or_default();
                    check.expect(count == nodes.len() as u64, || {
                        format!("{}: count {count} but {} nodes", query.id, nodes.len())
                    });
                    check.expect(exists == (count > 0), || {
                        format!("{}: exists {exists}, count {count}", query.id)
                    });
                    check.expect(
                        first.len() == nodes.len().min(10) && nodes.starts_with(&first),
                        || format!("{}: limit 10 is not a prefix of the node list", query.id),
                    );
                    check.digest.bytes(query.id.as_bytes());
                    digest_nodes(&mut check.digest, index, &nodes);
                }
                What::Search(search) => {
                    let hits = sut::search(index, search, off, 0);
                    op.expected = hits.len() as u64;
                    let ranked = hits.windows(2).all(|w| {
                        w[0].score > w[1].score
                            || (w[0].score == w[1].score && w[0].node < w[1].node)
                    });
                    check.expect(ranked, || format!("{}: hits are not ranked", op.label));
                    check.digest.bytes(op.label.as_bytes());
                    check.digest.u64(hits.len() as u64);
                    for hit in hits.iter().take(10) {
                        check.digest.u64(sut::preorder(index, hit.node) as u64);
                        check.digest.u64(hit.score.to_bits());
                        let xml = sut::subtree_xml(index, hit.node);
                        let has = |term: &String| xml.contains(term.as_str());
                        let relevant = match search.kind {
                            FtKind::All | FtKind::Phrase => search.terms.iter().all(has),
                            FtKind::Any => search.terms.iter().any(has),
                        };
                        check.expect(relevant, || {
                            format!("{}: a hit lacks the terms {:?}", op.label, search.terms)
                        });
                    }
                }
            }
        }
        check
    }

    fn measure(
        &mut self,
        window: Duration,
        warmup: usize,
        traced: bool,
    ) -> Result<Vec<Recorder>, String> {
        drive_callers(
            self.ops.len(),
            traced.then_some(1 << 20),
            warmup,
            window,
            |_, rec, request| self.pass(rec, request),
        )
    }

    fn staged(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            let index = &self.sides[op.side].index;
            let req = i as u32;
            match &op.what {
                What::Query {
                    query,
                    prepared,
                    mode: Mode::Count,
                } => {
                    tracer.span("op", req, |t| -> Result<(), String> {
                        sut::parse_query(index, query.xpath, t, req)?;
                        sut::compile_query(index, query.xpath, t, req)?;
                        sut::run(prepared, index, Mode::Count, t, req);
                        let nodes = sut::run(prepared, index, Mode::Nodes, t, req)
                            .nodes
                            .unwrap_or_default();
                        sut::serialize_nodes(index, &nodes[..nodes.len().min(3)], t, req);
                        Ok(())
                    })?;
                }
                What::Query { .. } => {}
                What::Search(search) => {
                    tracer.span("op", req, |t| sut::search(index, search, t, req));
                }
            }
        }
        Ok(())
    }

    fn footprint(&self) -> Result<Footprint, String> {
        self.sides.iter().try_fold(
            Footprint::default(),
            |sum, side| Ok(sum + side.footprint()?),
        )
    }

    fn built(&self, corpus: Corpus) -> Option<Built> {
        self.sides.iter().find(|b| b.corpus == corpus).cloned()
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}
