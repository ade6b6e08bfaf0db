//! Sec. V summary — the headline numbers: best per-family configurations,
//! LOSO cross-subject accuracy (mean ± std, 91% confidence interval,
//! paired t-test vs the RF baseline), ensemble accuracy and latency, and
//! the compressed variants.

use bench::{
    common_eval_set, ensemble_latency_s, eval_accuracy, family_genomes, header, prepared_data,
    row, train_one, Scale, EEG_CHANNELS,
};
use cognitive_arm::eval::{loso_accuracies, TrainedArtifact};
use ml::compress::{prune_global, quantize, QuantMode};
use ml::ensemble::{Ensemble, Voting};
use ml::metrics::{confidence_interval, mean_std, paired_t_test};

fn main() {
    let scale = Scale::from_env();
    let seed = 97;
    println!("# Sec. V summary — CognitiveArm headline results\n");
    let data = prepared_data(scale, seed);
    let eval_cap = match scale {
        Scale::Quick => 150,
        Scale::Default => 400,
        Scale::Full => 1500,
    };
    let eval_set = common_eval_set(&data, eval_cap);

    // --- LOSO cross-subject validation ---------------------------------
    println!("## Leave-one-subject-out accuracy per family\n");
    header(&["family", "per-subject accuracies", "mean ± std", "91% CI"]);
    let budget = scale.budget();
    let mut loso_by_family: Vec<(String, Vec<f64>)> = Vec::new();
    for genome in family_genomes(scale) {
        let accs = loso_accuracies(&data, &genome, &budget, seed).expect("loso runs");
        let (mean, std) = mean_std(&accs);
        let (lo, hi) = confidence_interval(&accs, 0.91);
        row(&[
            genome.family().to_string(),
            accs.iter().map(|a| format!("{a:.2}")).collect::<Vec<_>>().join(", "),
            format!("{mean:.3} ± {std:.3}"),
            format!("[{lo:.3}, {hi:.3}]"),
        ]);
        loso_by_family.push((genome.family().to_string(), accs));
    }

    // Paired t-test: best net family vs forest baseline (Sec. V-A).
    if loso_by_family.len() >= 4 {
        let cnn = &loso_by_family[0].1;
        let rf = &loso_by_family[3].1;
        if cnn.len() == rf.len() && cnn.len() >= 2 {
            let (t, df) = paired_t_test(cnn, rf);
            println!("\npaired t-test CNN vs RF across subjects: t = {t:.2}, df = {df}");
        }
    }

    // --- Ensemble + compression headline -------------------------------
    println!("\n## Deployment variants (within-study evaluation)\n");
    let genomes = family_genomes(scale);
    let cnn = train_one(&data, &genomes[0], scale, seed);
    let tf = train_one(&data, &genomes[2], scale, seed);
    let (TrainedArtifact::Net(cnn_net), TrainedArtifact::Net(tf_net)) =
        (cnn.artifact, tf.artifact)
    else {
        unreachable!("cnn/tf compile to nets")
    };

    header(&["variant", "accuracy", "inference (ms)"]);
    let report = |label: &str, a: &ml::infer::InferModel, b: &ml::infer::InferModel| {
        let e = Ensemble::new(
            vec![
                ml::ensemble::Member::Net(a.clone()),
                ml::ensemble::Member::Net(b.clone()),
            ],
            Voting::Soft,
        );
        let acc = eval_accuracy(&eval_set, |w| e.predict(w, EEG_CHANNELS));
        let lat = ensemble_latency_s(&eval_set, &e);
        row(&[label.to_owned(), format!("{acc:.3}"), format!("{:.2}", lat * 1e3)]);
        (acc, lat)
    };
    let (dense_acc, dense_lat) = report("CNN+TF ensemble (dense)", &cnn_net, &tf_net);

    let mut cp = cnn_net.clone();
    let mut tp = tf_net.clone();
    prune_global(&mut cp, 0.7);
    prune_global(&mut tp, 0.7);
    let (pr_acc, pr_lat) = report("70% pruned", &cp, &tp);

    let mut cq = cnn_net.clone();
    let mut tq = tf_net.clone();
    quantize(&mut cq, QuantMode::GlobalFaithful).expect("dense model quantizes");
    quantize(&mut tq, QuantMode::GlobalFaithful).expect("dense model quantizes");
    let (q_acc, q_lat) = report("int8 (global scale)", &cq, &tq);

    println!("\n## Paper vs measured\n");
    header(&["metric", "paper", "measured"]);
    row(&["ensemble accuracy".into(), "91%".into(), format!("{:.0}%", dense_acc * 100.0)]);
    row(&["ensemble latency".into(), "0.075 s (Jetson)".into(), format!("{dense_lat:.6} s (host CPU)")]);
    row(&["70% pruned accuracy".into(), "90.1%".into(), format!("{:.0}%", pr_acc * 100.0)]);
    row(&["70% pruned latency".into(), "0.071 s".into(), format!("{pr_lat:.6} s")]);
    row(&["int8 accuracy".into(), "38.5%".into(), format!("{:.0}%", q_acc * 100.0)]);
    row(&["int8 latency".into(), "0.036 s".into(), format!("{q_lat:.6} s")]);
    println!("\nshape checks: pruned ≈ dense accuracy: {}; pruned faster than dense: {}; int8 fastest: {}; int8 least accurate: {}",
        (pr_acc - dense_acc).abs() < 0.06,
        pr_lat <= dense_lat * 1.05,
        q_lat <= pr_lat,
        q_acc < pr_acc.min(dense_acc),
    );
}
