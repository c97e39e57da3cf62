//! BioXML generator: gene annotations combined with DNA sequences.
//!
//! Follows the DTD of Figure 17 of the paper: a `chromosome` of `gene`
//! elements, each with annotation fields, a `promoter` and a `sequence` of
//! `A`/`C`/`G`/`T` characters, and `transcript` children whose `exon`
//! sequences are *shared* substrings of the gene sequence — making the text
//! collection highly repetitive, the property the run-length compressed text
//! index of Section 6.7 exploits.

use crate::{rng, SimRng, XmlWriter};

/// Configuration of the BioXML generator.
#[derive(Debug, Clone, Copy)]
pub struct BioConfig {
    /// Number of genes.
    pub num_genes: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for BioConfig {
    fn default() -> Self {
        Self { num_genes: 100, seed: 42 }
    }
}

const BIOTYPES: &[&str] = &["protein_coding", "pseudogene", "lincRNA", "miRNA"];
const STATUSES: &[&str] = &["KNOWN", "NOVEL", "PUTATIVE"];

fn dna(rng: &mut SimRng, len: usize) -> String {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    (0..len).map(|_| BASES[rng.random_range(0..4)]).collect()
}

/// Generates the document.
pub fn generate(config: &BioConfig) -> String {
    let mut rng = rng(config.seed);
    let mut w = XmlWriter::new();
    w.open("chromosome");
    w.element("name", "5");
    for g in 0..config.num_genes {
        w.open("gene");
        w.element("name", &format!("ENSG{:011}", g));
        w.element("strand", if rng.random_bool(0.5) { "1" } else { "-1" });
        w.element("biotype", BIOTYPES[rng.random_range(0..BIOTYPES.len())]);
        w.element("status", STATUSES[rng.random_range(0..STATUSES.len())]);
        if rng.random_bool(0.7) {
            w.element("description", "synthetic gene annotation for reproduction experiments");
        }
        w.element("promoter", &dna(&mut rng, 1000));
        // The gene sequence; exons are substrings of it so transcripts repeat
        // the same text many times.
        let gene_len = rng.random_range(2000..5000);
        let gene_seq = dna(&mut rng, gene_len);
        w.element("sequence", &gene_seq);
        let num_transcripts = rng.random_range(1..5);
        // Pre-cut exons shared by all transcripts of this gene.
        let num_exons = rng.random_range(2..6);
        let exons: Vec<(usize, usize)> = (0..num_exons)
            .map(|_| {
                let start = rng.random_range(0..gene_seq.len() - 200);
                let len = rng.random_range(100..200);
                (start, (start + len).min(gene_seq.len()))
            })
            .collect();
        for t in 0..num_transcripts {
            w.open("transcript");
            w.element("name", &format!("ENST{:011}", g * 10 + t));
            w.element("start", &format!("{}", 100_000 + g * 10_000));
            w.element("end", &format!("{}", 100_000 + g * 10_000 + gene_seq.len()));
            let mut spliced = String::new();
            for (k, &(s, e)) in exons.iter().enumerate() {
                if rng.random_bool(0.8) {
                    w.open("exon");
                    w.element("name", &format!("ENSE{:011}", g * 100 + t * 10 + k));
                    w.element("start", &format!("{}", 100_000 + g * 10_000 + s));
                    w.element("end", &format!("{}", 100_000 + g * 10_000 + e));
                    w.element("sequence", &gene_seq[s..e]);
                    w.close();
                    spliced.push_str(&gene_seq[s..e]);
                }
            }
            w.element("sequence", &spliced);
            if rng.random_bool(0.6) {
                w.element("protein", &format!("ENSP{:011}", g * 10 + t));
            }
            w.close();
        }
        w.close();
    }
    w.close();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn follows_the_figure17_dtd() {
        let xml = generate(&BioConfig { num_genes: 8, seed: 13 });
        for tag in ["<chromosome>", "<gene>", "<promoter>", "<sequence>", "<transcript>", "<exon>", "<biotype>"] {
            assert!(xml.contains(tag), "generated BioXML misses {tag}");
        }
        assert_eq!(xml.matches("<gene>").count(), 8);
    }

    #[test]
    fn sequences_are_repetitive() {
        let xml = generate(&BioConfig { num_genes: 6, seed: 13 });
        let doc = sxsi_xml::parse_document(xml.as_bytes()).unwrap();
        // Exon sequences reappear inside transcript sequences: pick one
        // exon-sized DNA text (exons are 100–200 bases; promoters and gene
        // sequences are much longer) and check it occurs in at least two
        // different texts.
        let texts: Vec<&[u8]> = doc.t.split(|&b| b == 0).collect();
        let exon_text = texts
            .iter()
            .find(|t| (100..=200).contains(&t.len()) && t.iter().all(|&b| matches!(b, b'A' | b'C' | b'G' | b'T')))
            .expect("some exon-sized DNA text exists");
        let needle = &exon_text[..80];
        let occurrences = texts
            .iter()
            .filter(|t| t.windows(needle.len()).any(|w| w == needle))
            .count();
        assert!(occurrences >= 2, "expected repeated DNA content, got {occurrences}");
    }
}
