//! `ingest`: the write side.  One *pass* is one cycle — for each of the four
//! corpora parse → build → save to a file → load it back, then build the
//! eight segment indexes of an XMark split and write them as a collection.
//! Each of those steps is one *operation* (25 a pass, of 18 kinds: the eight
//! segment builds are one kind).  One caller per core runs cycles, each on
//! files of its own (see [`crate::measure::callers`]).

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Duration;

use super::{check_against_oracle, round_trip, units_of, Built, Check, Env, Footprint, Workload};
use crate::load::Fnv;
use crate::measure::{callers, drive_callers, Recorder, Rows};
use crate::stats::Summary;
use crate::sut::{self, Corpus, Index, Mode};
use crate::trace::Tracer;

const STEPS: [&str; 4] = ["parse", "build", "save", "load"];
const SEGMENTS_BUILD: usize = 16;
const COLLECTION_BUILD: usize = 17;

/// The state of the ingest workload after set-up.
pub struct Ingest {
    env: Env,
    /// The four corpora with their reference indexes.
    corpora: Vec<Built>,
    /// The XML of the collection's documents.
    segments: Vec<String>,
    /// Per corpus: the container length every save must reproduce.
    file_len: Vec<usize>,
}

impl Ingest {
    /// Generates the corpora and builds the reference indexes.
    pub fn setup(env: &Env) -> Result<Ingest, String> {
        let sizes = env.sizes.ingest;
        let corpora = Corpus::ALL
            .iter()
            .map(|&c| Built::new(c, units_of(sizes, c), env.seed))
            .collect::<Result<Vec<_>, _>>()?;
        let segments = segment_xml(sizes.0, env.sizes.segments, env.seed);
        let file_len = corpora
            .iter()
            .map(|b| b.footprint().map(|f| f.disk))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ingest {
            env: env.clone(),
            corpora,
            segments,
            file_len,
        })
    }

    /// Each caller writes files of its own.
    fn file(&self, caller: usize, corpus: Corpus) -> PathBuf {
        let name = format!("ingest{caller}-{}.sxsi", corpus.name());
        self.env.dir.join(name)
    }

    /// The segment files are named after the manifest.
    fn manifest(&self, caller: usize) -> PathBuf {
        self.env.dir.join(format!("ingest{caller}.sxsic"))
    }

    fn cycle(&self, caller: usize, rec: &mut Recorder, request: &mut u32) {
        for (slot, built) in self.corpora.iter().enumerate() {
            *request = request.wrapping_add(1);
            let (req, base) = (*request, slot * STEPS.len());
            let path = self.file(caller, built.corpus);
            let mut doc = None;
            rec.op(|t| {
                doc = sut::parse_xml(&built.xml, t, req).ok();
                (base, doc.is_some())
            });
            let Some(doc) = doc else { continue };
            let mut index = None;
            rec.op(|t| {
                index = Some(sut::build_from_parsed(doc, t, req));
                (base + 1, true)
            });
            let Some(index) = index else { continue };
            rec.op(|t| {
                (
                    base + 2,
                    save_file(&index, &path, t, req) == Ok(self.file_len[slot]),
                )
            });
            rec.op(|t| {
                let loaded = File::open(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|f| sut::load(&mut BufReader::new(f), t, req));
                (
                    base + 3,
                    loaded.is_ok_and(|l| sut::shape(&l) == sut::shape(&built.index)),
                )
            });
        }
        *request = request.wrapping_add(1);
        let req = *request;
        let mut docs = Vec::new();
        for (i, xml) in self.segments.iter().enumerate() {
            rec.op(|_| {
                let built = sut::build(xml);
                let ok = built.is_ok();
                docs.extend(built.map(|index| (format!("doc{i}"), index)));
                (SEGMENTS_BUILD, ok)
            });
        }
        rec.op(|t| {
            let built = sut::collection_build(&self.manifest(caller), docs, t, req);
            (
                COLLECTION_BUILD,
                built.is_ok_and(|c| c.num_docs() == self.segments.len()),
            )
        });
    }
}

/// The XML of an XMark corpus of total `scale` split into `n` documents.
pub fn segment_xml(scale: f64, n: usize, seed: u64) -> Vec<String> {
    (0..n)
        .map(|i| Corpus::XMark.generate(scale / n as f64, seed.wrapping_add(1 + i as u64)))
        .collect()
}

/// Saves `index` to `path` through a flushed buffered writer; returns the
/// file's length.
fn save_file(index: &Index, path: &PathBuf, t: &mut Tracer, req: u32) -> Result<usize, String> {
    let file = File::create(path).map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(file);
    sut::save(index, &mut writer, t, req)?;
    writer.flush().map_err(|e| e.to_string())?;
    std::fs::metadata(path)
        .map(|m| m.len() as usize)
        .map_err(|e| e.to_string())
}

impl Workload for Ingest {
    fn kinds(&self) -> Vec<String> {
        let mut kinds: Vec<String> = Corpus::ALL
            .iter()
            .flat_map(|c| STEPS.iter().map(move |s| format!("{}.{s}", c.name())))
            .collect();
        kinds.extend(["segments.build".to_string(), "collection.build".to_string()]);
        kinds
    }

    fn text_kinds(&self) -> Vec<bool> {
        vec![false; COLLECTION_BUILD + 1]
    }

    fn inputs_digest(&self) -> u64 {
        let mut digest = Fnv::default();
        self.corpora
            .iter()
            .for_each(|b| digest.bytes(b.xml.as_bytes()));
        self.segments
            .iter()
            .for_each(|xml| digest.bytes(xml.as_bytes()));
        digest.0
    }

    fn check(&mut self) -> Check {
        let mut check = Check::default();
        // Small corpora: what a reloaded index answers must be what the
        // naive evaluator answers on the index it was saved from.
        for built in &self.corpora {
            let units = built.units / self.env.sizes.oracle_divisor;
            check_against_oracle(&mut check, built.corpus, units, self.env.seed, true);
        }
        // Full corpora: a reloaded index has the shape and the counts of
        // the index it was saved from.
        for built in &self.corpora {
            let loaded = match round_trip(&built.index) {
                Ok(loaded) => loaded,
                Err(e) => {
                    check.error(built.corpus.name(), e);
                    continue;
                }
            };
            check.expect(sut::shape(&loaded) == sut::shape(&built.index), || {
                format!("{}: shape changed across save/load", built.corpus.name())
            });
            sut::shape(&loaded)
                .iter()
                .for_each(|&n| check.digest.u64(n as u64));
            for query in sut::catalogue()
                .into_iter()
                .filter(|q| q.corpus == built.corpus)
            {
                let count = |index: &Index| {
                    sut::prepare(index, query.xpath)
                        .map(|p| sut::run(&p, index, Mode::Count, &mut Tracer::off(), 0).count)
                };
                match (count(&loaded), count(&built.index)) {
                    (Ok(after), Ok(before)) => {
                        check.expect(after == before, || {
                            format!("{}: {before} before save, {after} after load", query.id)
                        });
                        check.digest.bytes(query.id.as_bytes());
                        check.digest.u64(after);
                    }
                    (Err(e), _) | (_, Err(e)) => check.error(query.id, e),
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
            COLLECTION_BUILD + 1,
            traced.then_some(1 << 16),
            warmup,
            window,
            |caller, rec, request| self.cycle(caller, rec, request),
        )
    }

    fn staged(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        // The cycle is already one span per stage; record one more of it.
        let mut recorder = Recorder::new(
            COLLECTION_BUILD + 1,
            std::mem::replace(tracer, Tracer::off()),
        );
        self.cycle(0, &mut recorder, &mut 0);
        *tracer = recorder.tracer;
        Ok(())
    }

    fn footprint(&self) -> Result<Footprint, String> {
        Ok(self
            .corpora
            .iter()
            .zip(&self.file_len)
            .fold(Footprint::default(), |sum, (b, &disk)| {
                sum + Footprint {
                    heap: sut::heap_bytes(&b.index),
                    disk,
                    xml: b.xml.len(),
                }
            }))
    }

    fn extra_rows(&self, recorders: &[Recorder], rows: &mut Rows) {
        let Some(rec) = recorders.first() else { return };
        let cycles = rec.passes.len();
        // Sum of one step over the four corpora, per cycle, in milliseconds.
        let per_cycle = |step: usize| -> Vec<f64> {
            (0..cycles)
                .map(|j| {
                    (0..Corpus::ALL.len())
                        .filter_map(|c| rec.by_kind[c * STEPS.len() + step].get(j))
                        .sum::<u64>() as f64
                        / 1e6
                })
                .collect()
        };
        let xml_mb = self.corpora.iter().map(|b| b.xml.len()).sum::<usize>() as f64 / 1e6;
        let rate: Vec<f64> = per_cycle(0)
            .iter()
            .zip(per_cycle(1))
            .map(|(parse, build)| xml_mb / ((parse + build) / 1e3))
            .collect();
        rows.put_samples("build_mb_per_s", &rate);
        rows.put_samples("save_p50_ms", &per_cycle(2));
        rows.put_samples("load_p50_ms", &per_cycle(3));
        rows.put("xml_mb", Summary::exact(xml_mb));
    }

    fn built(&self, corpus: Corpus) -> Option<Built> {
        self.corpora.iter().find(|b| b.corpus == corpus).cloned()
    }

    fn teardown(self: Box<Self>) -> Result<(), String> {
        for caller in 0..callers() {
            for built in &self.corpora {
                let _ = std::fs::remove_file(self.file(caller, built.corpus));
            }
        }
        Ok(())
    }
}
