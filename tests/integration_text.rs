//! Text-oriented integration tests: the Medline/word query sets against the
//! naive reference, and consistency of the FM-index predicates with plain
//! scanning over the generated corpora.

use sxsi::SxsiIndex;
use sxsi_baseline::NaiveEvaluator;
use sxsi_datagen::{medline, wiki, MedlineConfig, WikiConfig};
use sxsi_text::TextPredicate;
use sxsi_xpath::eval::{EvalOptions, Evaluator};
use sxsi_xpath::{compile, parse_query, MEDLINE_QUERIES, WORD_QUERIES};

#[test]
fn medline_queries_match_reference() {
    let xml = medline::generate(&MedlineConfig { num_citations: 120, seed: 5 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    let naive = NaiveEvaluator::new(index.tree(), index.texts());
    for q in MEDLINE_QUERIES {
        let parsed = parse_query(q.xpath).unwrap();
        assert_eq!(
            index.count(q.xpath).unwrap() as usize,
            naive.count(&parsed),
            "{} count differs",
            q.id
        );
    }
}

#[test]
fn word_queries_match_reference_on_both_corpora() {
    let medline_xml = medline::generate(&MedlineConfig { num_citations: 100, seed: 6 });
    let wiki_xml = wiki::generate(&WikiConfig { num_pages: 120, seed: 6 });
    for xml in [medline_xml, wiki_xml] {
        let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
        let naive = NaiveEvaluator::new(index.tree(), index.texts());
        for q in WORD_QUERIES {
            let parsed = parse_query(q.xpath).unwrap();
            assert_eq!(
                index.count(q.xpath).unwrap() as usize,
                naive.count(&parsed),
                "{} count differs",
                q.id
            );
        }
    }
}

#[test]
fn fm_index_predicates_agree_with_plain_scans() {
    let xml = medline::generate(&MedlineConfig { num_citations: 80, seed: 7 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    let texts = index.texts();
    let plain = texts.plain().expect("plain copy kept by default");
    for pattern in ["plus", "blood", "the", "Barnes", "AUSTRALIA", "zzzz"] {
        let p = pattern.as_bytes();
        assert_eq!(texts.contains(p), plain.scan_contains(p), "contains {pattern}");
        assert_eq!(texts.starts_with(p), plain.scan_starts_with(p), "starts_with {pattern}");
        assert_eq!(texts.ends_with(p), plain.scan_ends_with(p), "ends_with {pattern}");
        assert_eq!(texts.equals(p), plain.scan_equals(p), "equals {pattern}");
        assert_eq!(texts.global_count(p), plain.scan_global_count(p), "global_count {pattern}");
    }
}

#[test]
fn bottom_up_and_top_down_agree() {
    let xml = medline::generate(&MedlineConfig { num_citations: 120, seed: 8 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    for q in MEDLINE_QUERIES {
        // The planner's answer against the automaton run from the root.
        let automaton = compile(&parse_query(q.xpath).unwrap(), index.tree()).unwrap();
        let mut top_down =
            Evaluator::new(&automaton, index.tree(), Some(index.texts()), EvalOptions::default());
        assert_eq!(index.count(q.xpath).unwrap(), top_down.count(), "{} strategy mismatch", q.id);
    }
}

#[test]
fn text_extraction_roundtrips() {
    let xml = medline::generate(&MedlineConfig { num_citations: 30, seed: 9 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    let texts = index.texts();
    for d in 0..texts.num_texts() {
        let content = texts.get_text(d);
        assert_eq!(content.len(), texts.text_len(d));
        if !content.is_empty() {
            // The extracted text matches itself through the index.
            let ids = texts.matching_texts(&TextPredicate::Equals(content.clone()));
            assert!(ids.contains(&d), "text {d} not found by equality search");
        }
    }
}

/// Multi-byte UTF-8 regression: needles that cut across codepoint
/// boundaries — a lone continuation byte, a lead byte without its tail,
/// the tail of one emoji glued to the head of the next — must never
/// panic anywhere in the FM-index machinery (backward search over bytes
/// that may not even occur, locate walks, the plain scans) and must agree
/// with a naive byte-window scan on every contains variant.
#[test]
fn cross_codepoint_needles_agree_with_naive_scan() {
    use sxsi_text::{TextCollection, TextCollectionOptions};

    let texts: Vec<&[u8]> = vec![
        "caf\u{e9} au lait".as_bytes(),
        "na\u{ef}ve r\u{e9}sum\u{e9}".as_bytes(),
        "\u{1F600}\u{1F601}grin".as_bytes(),
        "\u{a0}nbsp\u{a0}pad".as_bytes(),
        b"plain ascii",
        b"",
    ];
    let emoji = "\u{1F600}\u{1F601}".as_bytes(); // f0 9f 98 80 f0 9f 98 81
    let mut needles: Vec<Vec<u8>> = vec![
        "\u{e9}".as_bytes().to_vec(),    // a full two-byte codepoint
        vec![0xa9, b' '],                // tail of é + the following space
        vec![0xa9],                      // lone continuation byte
        vec![0xc3],                      // lone lead byte
        emoji[2..6].to_vec(),            // tail of 😀 + head of 😁
        emoji[3..5].to_vec(),            // last byte of one + first of next
        vec![0xff],                      // byte absent from every text
        "\u{e9} a".as_bytes().to_vec(),  // crosses codepoint AND word boundary
        "\u{a0}pad".as_bytes().to_vec(),
    ];
    // Every window of the emoji pair, aligned or not.
    for len in 1..=emoji.len() {
        needles.extend(emoji.windows(len).map(<[u8]>::to_vec));
    }

    // Both branches of `contains` face the hostile needles: the locate
    // answer (backward search, then `locate_row` per occurrence) and,
    // wherever a plain copy exists, the plain scans.
    for options in [
        TextCollectionOptions::default(),
        TextCollectionOptions { keep_plain_text: false, ..Default::default() },
    ] {
        let col = TextCollection::with_options(&texts, options.clone());
        for needle in &needles {
            let naive_ids: Vec<usize> = (0..texts.len())
                .filter(|&i| texts[i].windows(needle.len()).any(|w| w == &needle[..]))
                .collect();
            let naive_pos: Vec<(usize, usize)> = (0..texts.len())
                .flat_map(|i| {
                    texts[i]
                        .windows(needle.len())
                        .enumerate()
                        .filter(|(_, w)| *w == &needle[..])
                        .map(move |(off, _)| (i, off))
                        .collect::<Vec<_>>()
                })
                .collect();
            let label = format!("{needle:?} with {options:?}");
            assert_eq!(col.contains(needle), naive_ids, "contains {label}");
            assert_eq!(col.contains_count(needle), naive_ids.len(), "count {label}");
            assert_eq!(col.contains_positions(needle), naive_pos, "positions {label}");
            assert_eq!(col.global_count(needle), naive_pos.len(), "global {label}");
            assert_eq!(col.contains_exists(needle), !naive_pos.is_empty(), "exists {label}");
            let range = col.fm_index().backward_search(needle);
            let mut located: Vec<(usize, usize)> =
                (range.start..range.end).map(|row| col.locate_row(row)).collect();
            located.sort_unstable();
            assert_eq!(located, naive_pos, "locate {label}");
            if let Some(plain) = col.plain() {
                assert_eq!(plain.scan_contains(needle), naive_ids, "scan {label}");
                assert_eq!(plain.scan_contains_count(needle), naive_ids.len(), "scan count {label}");
                assert_eq!(plain.scan_contains_positions(needle), located, "scan positions {label}");
            }
        }
    }
}
