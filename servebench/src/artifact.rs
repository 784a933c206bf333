//! The benchmark's artifact: an untrained model at the serving shape, with
//! a vocabulary built from a fixed synthetic corpus. No weights are
//! trained, so outputs are not meaningful suggestions; timings depend on
//! the architecture, not on the weights.

use mpirical::corpus::{generate_dataset, CorpusConfig};
use mpirical::model::{DecodeOptions, ModelConfig, Seq2SeqModel};
use mpirical::{build_vocab, InputFormat, MpiRical, Precision};

/// Seed of the model's weight initialisation.
pub const MODEL_SEED: u64 = 0x5EED;
/// Seed and size of the corpus the vocabulary is built from.
pub const VOCAB_CORPUS_SEED: u64 = 33;
pub const VOCAB_CORPUS_PROGRAMS: usize = 400;

/// The serving shape: d_model 256, 4 heads, d_ff 512, 2 + 2 layers,
/// 256 encoder and 240 decoder positions.
pub fn serving_shape() -> ModelConfig {
    ModelConfig {
        vocab_size: 0,
        d_model: 256,
        n_heads: 4,
        d_ff: 512,
        n_enc_layers: 2,
        n_dec_layers: 2,
        max_enc_len: 256,
        max_dec_len: 240,
        dropout: 0.0,
    }
}

/// Build the artifact: corpus → vocabulary → fixed-seed weights, with the
/// given precision and verification off. An int8 artifact quantizes its
/// decoder weights here, as loading a saved one would.
pub fn build(precision: Precision) -> MpiRical {
    let (_, dataset, _) = generate_dataset(&CorpusConfig {
        programs: VOCAB_CORPUS_PROGRAMS,
        seed: VOCAB_CORPUS_SEED,
        max_tokens: 320,
        threads: 1,
    });
    let vocab = build_vocab(&dataset, 1, 4096);
    let model = Seq2SeqModel::new(serving_shape(), vocab, MODEL_SEED);
    let decode = DecodeOptions {
        precision,
        ..DecodeOptions::default()
    };
    let assistant = MpiRical::from_parts(model, InputFormat::CodeXsbt, decode, None);
    if precision == Precision::Int8 {
        assistant.quant_weights();
    }
    assistant
}

/// Bytes of decoder weight matrices one decode step streams, computed from
/// the tensor shapes (not measured): per decoder layer the self-attention
/// Q/K/V/O and cross-attention Q/O projections (`d x d` each) and the two
/// feed-forward matrices, plus the vocabulary projection. Int8 stores one
/// byte per weight plus one f32 scale per output channel.
pub fn weight_bytes_per_step(cfg: &ModelConfig, precision: Precision) -> u64 {
    let (d, f, v) = (cfg.d_model as u64, cfg.d_ff as u64, cfg.vocab_size as u64);
    // (rows, cols) of each streamed matrix; the output channel is `cols`.
    let mut mats: Vec<(u64, u64)> = Vec::new();
    for _ in 0..cfg.n_dec_layers {
        mats.extend([(d, d); 6]);
        mats.push((d, f));
        mats.push((f, d));
    }
    mats.push((d, v));
    mats.iter()
        .map(|&(r, c)| match precision {
            Precision::F32 => 4 * r * c,
            Precision::Int8 => r * c + 4 * c,
        })
        .sum()
}
