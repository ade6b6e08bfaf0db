//! Fig. 12 — test accuracy vs inference time under compression: pruning at
//! {0, 30, 50, 70, 90}% with sparse CSR kernels, and 8-bit quantization in
//! the paper-faithful global mode (point "A": fast but accuracy collapses)
//! plus the calibrated ablation from DESIGN.md §4.
//!
//! Expected shape: 70% pruning keeps accuracy ≈ dense while trimming
//! latency; global int8 is the fastest and the least accurate.

use bench::{
    common_eval_set, ensemble_latency_s, eval_accuracy, family_genomes, header, prepared_data,
    row, train_one, Scale, EEG_CHANNELS,
};
use cognitive_arm::eval::TrainedArtifact;
use ml::compress::{measured_sparsity, prune_global, quantize, storage_bytes, QuantMode, PAPER_PRUNE_LEVELS};
use ml::ensemble::{Ensemble, Voting};
use ml::infer::InferModel;

fn nets(scale: Scale, seed: u64, data: &cognitive_arm::eval::PreparedData) -> Vec<InferModel> {
    // The winning ensemble shape: CNN + Transformer (fig. 11).
    let genomes = family_genomes(scale);
    [&genomes[0], &genomes[2]]
        .iter()
        .map(|g| {
            let t = train_one(data, g, scale, seed);
            match t.artifact {
                TrainedArtifact::Net(m) => m,
                TrainedArtifact::Forest(_) => unreachable!("cnn/tf genomes compile to nets"),
            }
        })
        .collect()
}

fn measure(
    label: &str,
    models: &[InferModel],
    eval_set: &[eeg::types::LabeledWindow],
) -> (f64, f64, usize, usize) {
    let ensemble = Ensemble::new(
        models
            .iter()
            .map(|m| ml::ensemble::Member::Net(m.clone()))
            .collect(),
        Voting::Soft,
    );
    let acc = eval_accuracy(eval_set, |w| ensemble.predict(w, EEG_CHANNELS));
    let lat = ensemble_latency_s(eval_set, &ensemble);
    let params = ensemble.param_count();
    let bytes: usize = models.iter().map(storage_bytes).sum();
    println!(
        "measured {label:<28} acc {acc:.3}  latency {:7.2} ms  params {params:>8}  weights {bytes:>9} B",
        lat * 1e3
    );
    (acc, lat, params, bytes)
}

fn main() {
    let scale = Scale::from_env();
    let seed = 71;
    println!("# Fig. 12 — compression trade-off on the CNN+Transformer ensemble\n");
    let data = prepared_data(scale, seed);
    let eval_cap = match scale {
        Scale::Quick => 120,
        Scale::Default => 300,
        Scale::Full => 1000,
    };
    let eval_set = common_eval_set(&data, eval_cap);
    let dense = nets(scale, seed, &data);

    let mut results: Vec<(String, f64, f64)> = Vec::new();

    println!("## Pruning sweep (global magnitude, CSR kernels)\n");
    for &ratio in &PAPER_PRUNE_LEVELS {
        let mut pruned = dense.clone();
        for m in &mut pruned {
            prune_global(m, ratio);
        }
        let sparsity = measured_sparsity(&pruned[0]);
        let label = format!("pruned {:.0}% (meas {:.0}%)", ratio * 100.0, sparsity * 100.0);
        let (acc, lat, _, _) = measure(&label, &pruned, &eval_set);
        results.push((label, acc, lat));
    }

    println!("\n## Quantization\n");
    let mut faithful = dense.clone();
    for m in &mut faithful {
        quantize(m, QuantMode::GlobalFaithful).expect("dense model quantizes");
    }
    let (facc, flat, _, _) = measure("int8 global (paper mode A)", &faithful, &eval_set);
    results.push(("int8 global".to_owned(), facc, flat));

    let mut calibrated = dense.clone();
    for m in &mut calibrated {
        quantize(m, QuantMode::Calibrated).expect("dense model quantizes");
    }
    let (cacc, clat, _, _) = measure("int8 calibrated (ablation)", &calibrated, &eval_set);
    results.push(("int8 calibrated".to_owned(), cacc, clat));

    println!("\n## Summary table\n");
    header(&["variant", "accuracy", "inference (ms)"]);
    for (label, acc, lat) in &results {
        row(&[label.clone(), format!("{acc:.3}"), format!("{:.2}", lat * 1e3)]);
    }

    let dense_acc = results[0].1;
    let p70 = &results[3];
    println!(
        "\npaper shape checks: 70% pruning accuracy within 3 points of dense: {} ({:.3} vs {dense_acc:.3});",
        (p70.1 - dense_acc).abs() < 0.05,
        p70.1
    );
    println!(
        "global int8 degrades far more than calibrated int8: {} ({facc:.3} vs {cacc:.3});",
        facc < cacc
    );
    println!(
        "paper reference: 70% pruned 90.1% @ 0.071 s; int8 0.036 s at 38.5% accuracy."
    );
}
