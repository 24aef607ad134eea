//! Shared setup: generate a corpus at a named scale and load it into a
//! warehouse with a built semantic index.

use std::time::Duration;

use mdw_core::ingest::IngestReport;
use mdw_core::warehouse::MetadataWarehouse;
use mdw_corpus::{generate, Corpus, CorpusConfig, Scale};
use mdw_reason::MaterializeStats;

/// A loaded warehouse plus everything the experiments need to know about
/// how it got there.
pub struct Loaded {
    /// The warehouse, semantic index built.
    pub warehouse: MetadataWarehouse,
    /// The corpus that was ingested.
    pub corpus: Corpus,
    /// The ingest trace.
    pub ingest: IngestReport,
    /// Inference statistics.
    pub inference: MaterializeStats,
    /// Wall-clock of the inference build.
    pub inference_time: Duration,
}

/// Parses a scale name (`small`, `medium`, `paper`).
pub fn parse_scale(name: &str) -> Option<Scale> {
    match name {
        "small" => Some(Scale::Small),
        "medium" => Some(Scale::Medium),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

/// Generates and loads a corpus at the given scale.
pub fn load_scale(scale: Scale) -> Loaded {
    load_config(&CorpusConfig::preset(scale))
}

/// Generates and loads a corpus with an explicit configuration.
pub fn load_config(config: &CorpusConfig) -> Loaded {
    let corpus = generate(config);
    let mut warehouse = MetadataWarehouse::new();
    let ingest = warehouse
        .ingest(corpus.clone().into_extracts())
        .expect("corpus ingests cleanly");
    let t = std::time::Instant::now();
    let inference = warehouse.build_semantic_index().expect("index builds");
    let inference_time = t.elapsed();
    Loaded { warehouse, corpus, ingest, inference, inference_time }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scales() {
        assert_eq!(parse_scale("small"), Some(Scale::Small));
        assert_eq!(parse_scale("paper"), Some(Scale::Paper));
        assert_eq!(parse_scale("huge"), None);
    }

    #[test]
    fn small_scale_loads() {
        let loaded = load_scale(Scale::Small);
        assert!(loaded.ingest.is_clean());
        assert!(loaded.inference.derived > 0);
        assert!(loaded.warehouse.entailed().is_ok());
    }
}
