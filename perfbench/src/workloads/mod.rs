//! The four workloads behind one interface.
//!
//! A workload is a seeded stream of *operations* (each timed on its own and
//! grouped by kind) arranged in *passes* (one sweep over the catalogue, one
//! ingest cycle, one block of requests).  The end-to-end metrics are defined
//! on those two words, so every workload reports every metric.

pub mod ingest;
pub mod queries;
pub mod serve;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::load::Fnv;
use crate::measure::{Recorder, Rows, QUIET_PERCENTILE};
use crate::spec::Sizes;
use crate::sut::{self, Corpus, Index};
use crate::trace::Tracer;

/// What a run is parameterised by.
#[derive(Debug, Clone)]
pub struct Env {
    /// The workload seed: fixes corpora, operands, terms and request order.
    pub seed: u64,
    /// Corpus and loop sizes.
    pub sizes: Sizes,
    /// A private scratch directory inside the checkout (index files,
    /// collection segments, the daemon's socket).
    pub dir: PathBuf,
}

/// The correctness gate's verdict.
#[derive(Debug, Default)]
pub struct Check {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// FNV digest of the answers, for comparing two commits.
    pub digest: Fnv,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Check {
    /// Records one check; `describe` is called only on failure.
    pub fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(describe());
            }
        }
    }

    /// Records a failed step that produced an error instead of an answer.
    pub fn error(&mut self, what: &str, error: String) {
        self.expect(false, || format!("{what}: {error}"));
    }
}

/// One corpus with its index, shared between a workload and the layer suite.
#[derive(Clone)]
pub struct Built {
    /// The corpus kind.
    pub corpus: Corpus,
    /// The XMark scale, or the number of sentences / citations / pages.
    pub units: f64,
    /// The generated XML.
    pub xml: Arc<str>,
    /// The index over it.
    pub index: Arc<Index>,
}

impl Built {
    /// Generates and indexes `corpus` at `units`.
    pub fn new(corpus: Corpus, units: f64, seed: u64) -> Result<Built, String> {
        let xml: Arc<str> = corpus.generate(units, seed).into();
        let index = Arc::new(sut::build(&xml)?);
        Ok(Built {
            corpus,
            units,
            xml,
            index,
        })
    }

    /// Heap bytes, serialized bytes and XML bytes of this corpus.
    pub fn footprint(&self) -> Result<Footprint, String> {
        let mut file = Vec::new();
        sut::save(&self.index, &mut file, &mut Tracer::off(), 0)?;
        Ok(Footprint {
            heap: sut::heap_bytes(&self.index),
            disk: file.len(),
            xml: self.xml.len(),
        })
    }
}

/// Bytes of index per bytes of XML, summed over a workload's corpora.
#[derive(Debug, Clone, Copy, Default)]
pub struct Footprint {
    /// `IndexStats::total_bytes`.
    pub heap: usize,
    /// `.sxsi` container bytes.
    pub disk: usize,
    /// XML source bytes.
    pub xml: usize,
}

impl std::ops::Add for Footprint {
    type Output = Footprint;
    fn add(self, o: Footprint) -> Footprint {
        Footprint {
            heap: self.heap + o.heap,
            disk: self.disk + o.disk,
            xml: self.xml + o.xml,
        }
    }
}

/// The units (XMark scale or document count) of `corpus` in a four-corpus
/// size tuple.
pub fn units_of(sizes: (f64, usize, usize, usize), corpus: Corpus) -> f64 {
    match corpus {
        Corpus::XMark => sizes.0,
        Corpus::Treebank => sizes.1 as f64,
        Corpus::Medline => sizes.2 as f64,
        Corpus::Wiki => sizes.3 as f64,
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Labels of the operation kinds, indexed as in [`Recorder::by_kind`].
    fn kinds(&self) -> Vec<String>;

    /// The percentile a kind's latency is read at for `op_geomean_us`: the
    /// quiet-host reading where a kind is one operation repeated.
    fn kind_percentile(&self) -> f64 {
        QUIET_PERCENTILE
    }

    /// Per kind: whether the operation uses the text index on the read side
    /// (a text predicate, a bottom-up/text-first plan, or a keyword search).
    fn text_kinds(&self) -> Vec<bool>;

    /// FNV digest of the inputs generated from the seed (corpora, search
    /// terms, request pool): the same seed gives the same digest.
    fn inputs_digest(&self) -> u64;

    /// The correctness gate: oracle comparison on small corpora, consistency
    /// on the full ones, and the answers digest.  Also fixes the expected
    /// answer of every operation, so it runs before [`Workload::measure`].
    fn check(&mut self) -> Check;

    /// Runs the closed loop for `window` after `warmup` discarded passes;
    /// one recorder per client thread.  `traced` records spans on every
    /// other pass (see [`Recorder::drive`]).
    fn measure(
        &mut self,
        window: Duration,
        warmup: usize,
        traced: bool,
    ) -> Result<Vec<Recorder>, String>;

    /// One staged pass with spans around each stage of each operation, for
    /// the `trace.self_pct.*` rows.
    fn staged(&mut self, tracer: &mut Tracer) -> Result<(), String>;

    /// Index bytes against XML bytes over the workload's corpora.
    fn footprint(&self) -> Result<Footprint, String>;

    /// Workload-specific rows for the result file (not part of the contract).
    fn extra_rows(&self, _recorders: &[Recorder], _rows: &mut Rows) {}

    /// The workload's own corpus of `corpus` kind, if it has one — the layer
    /// suite measures on it in preference to a probe-size corpus.
    fn built(&self, corpus: Corpus) -> Option<Built>;

    /// Lets the workload replace layer rows with what its own traced window
    /// observed (`serve`: the three cache hit rates).
    fn layer_overrides(&self, _rows: &mut Rows) {}

    /// Stops whatever the set-up started and removes its files.
    fn teardown(self: Box<Self>) -> Result<(), String>;
}

/// Sets workload `name` up once.
pub fn setup(name: &str, env: &Env) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tree-nav" => Box::new(queries::Queries::setup(env, queries::Flavor::TreeNav)?),
        "text-search" => Box::new(queries::Queries::setup(env, queries::Flavor::TextSearch)?),
        "ingest" => Box::new(ingest::Ingest::setup(env)?),
        "serve" => Box::new(serve::Serve::setup(env)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Saves and reloads `index` in memory.
pub fn round_trip(index: &Index) -> Result<Index, String> {
    let mut bytes = Vec::new();
    sut::save(index, &mut bytes, &mut Tracer::off(), 0)?;
    sut::load(&mut bytes.as_slice(), &mut Tracer::off(), 0)
}

/// The oracle half of the correctness gate: every catalogue query of
/// `corpus`, on a corpus of `units` generated from the same seed, must
/// select exactly the nodes the naive evaluator selects.  With `reload`,
/// the indexed side answers from a saved-and-reloaded copy of the index.
pub fn check_against_oracle(
    check: &mut Check,
    corpus: Corpus,
    units: f64,
    seed: u64,
    reload: bool,
) {
    let small = Built::new(corpus, units, seed).and_then(|small| {
        let answering = if reload {
            Arc::new(round_trip(&small.index)?)
        } else {
            small.index.clone()
        };
        Ok((small, answering))
    });
    let (small, answering) = match small {
        Ok(pair) => pair,
        Err(e) => return check.error("oracle corpus", e),
    };
    for query in sut::catalogue().into_iter().filter(|q| q.corpus == corpus) {
        let ours = sut::prepare(&answering, query.xpath).map(|p| {
            sut::run(&p, &answering, sut::Mode::Nodes, &mut Tracer::off(), 0)
                .nodes
                .unwrap_or_default()
        });
        match (ours, sut::oracle_nodes(&small.index, query.xpath)) {
            (Ok(ours), Ok(naive)) => check.expect(ours == naive, || {
                format!(
                    "{}: {} nodes, the naive evaluator finds {}",
                    query.id,
                    ours.len(),
                    naive.len()
                )
            }),
            (Err(e), _) | (_, Err(e)) => check.error(query.id, e),
        }
    }
}

/// Folds a node list into a digest as preorder numbers.
pub fn digest_nodes(digest: &mut Fnv, index: &Index, nodes: &[sut::Node]) {
    digest.u64(nodes.len() as u64);
    for &node in nodes {
        digest.u64(sut::preorder(index, node) as u64);
    }
}
