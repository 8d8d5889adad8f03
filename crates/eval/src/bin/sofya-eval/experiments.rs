//! The experiments `sofya-eval` runs: each generates its pair from the
//! shared [`Options`], drives the library, and prints its table.

use crate::Options;
use sofya_core::{AlignError, AlignerConfig, SamplingStrategy, SubsumptionRule};
use sofya_eval::report::{direction_header, direction_row, Table};
use sofya_eval::{
    align_direction, align_pair, evaluate_rules, mine_equivalences, run_table1, sweep,
    table1_over_seeds, Aggregate, DirectionOutcome, PrecisionRecall,
};
use sofya_kbgen::{generate, GeneratedPair, MappingKind, PairConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;

type Experiment = fn(&Options) -> Result<(), Box<dyn Error>>;

/// Every experiment by its command-line name.
const ALL: [(&str, Experiment); 9] = [
    ("table1", table1),
    ("table1-multiseed", table1_multiseed),
    ("threshold-sweep", threshold_sweep),
    ("frontier", frontier),
    ("coverage-sweep", coverage_sweep),
    ("incompleteness-sweep", incompleteness_sweep),
    ("equivalence-table", equivalence_table),
    ("export-pair", export_pair),
    ("diagnose", diagnose),
];

pub fn by_name(name: &str) -> Option<Experiment> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, run)| *run)
}

/// The three methods of Table 1 at their default sample size.
fn methods(seed: u64) -> [(&'static str, AlignerConfig); 3] {
    [
        ("pcaconf (SSE)", AlignerConfig::baseline_pca(seed)),
        ("cwaconf (SSE)", AlignerConfig::baseline_cwa(seed)),
        ("UBS pcaconf", AlignerConfig::paper_defaults(seed)),
    ]
}

/// A table under a fixed header.
fn table(header: &[&str]) -> Table {
    Table::new(header.iter().map(|h| (*h).to_owned()).collect())
}

/// Precision, recall and F1 as the quality cells print them.
fn prf(m: &PrecisionRecall) -> [String; 3] {
    [m.precision(), m.recall(), m.f1()].map(|x| format!("{x:.2}"))
}

/// One row per value of a generator knob that degrades KB1: the pair
/// regenerated at that value, then UBS and SSE-pcaconf scored on
/// `kb2 ⊂ kb1`, the direction whose conclusions lie in KB1.
fn sensitivity_sweep(
    options: &Options,
    knob: &str,
    values: [f64; 6],
    set: fn(&mut PairConfig, f64),
) -> Result<Vec<[PrecisionRecall; 2]>, AlignError> {
    let Options { seed, threads, .. } = *options;
    let mut rows = Vec::new();
    for value in values {
        let mut pair_config = options.scale.pair_config(seed);
        set(&mut pair_config, value);
        eprintln!("generating pair at {knob} {value}…");
        let pair = generate(&pair_config);
        let (kb1, kb2) = (pair.kb1_name(), pair.kb2_name());
        let score = |config: AlignerConfig| {
            let out = align_direction(&pair.kb2, &pair.kb1, kb2, kb1, &config, threads)?;
            Ok::<_, AlignError>(evaluate_rules(&out.rules, &pair.gold, kb2, kb1))
        };
        rows.push([
            score(AlignerConfig::paper_defaults(seed))?,
            score(AlignerConfig::baseline_pca(seed))?,
        ]);
    }
    Ok(rows)
}

/// T1. The absolute values differ from the paper's (the substrate is a
/// synthetic pair, not the 2015 YAGO2/DBpedia dumps), but the shape must
/// hold: both SSE baselines sit far below UBS in precision, and UBS
/// keeps recall high.
fn table1(options: &Options) -> Result<(), Box<dyn Error>> {
    let (sample_size, threads) = (options.sample_size, options.threads);
    let pair = options.generate_pair();
    let (kb1, kb2) = (pair.kb1_name(), pair.kb2_name());

    eprintln!("running Table 1 (sample size {sample_size}, {threads} threads)…");
    let start = std::time::Instant::now();
    let result = run_table1(&pair, options.seed, sample_size, threads)?;
    let elapsed = start.elapsed();

    println!("\nTable 1 — alignment subsumptions ({kb1} and {kb2} relations)");
    println!("{}", result.render());
    println!("paper reference (YAGO2 / DBpedia, sample size 10):");
    println!("  pcaconf tau>0.3   yago⊂dbpd P 0.55 F1 0.58 | dbpd⊂yago P 0.51 F1 0.48");
    println!("  cwaconf tau>0.1   yago⊂dbpd P 0.56 F1 0.59 | dbpd⊂yago P 0.55 F1 0.53");
    println!("  UBS pcaconf       yago⊂dbpd P 0.95 F1 0.97 | dbpd⊂yago P 0.91 F1 0.82");
    println!();
    for row in &result.rows {
        println!(
            "{:<24} {:>10} queries ({kb1} ⊂ {kb2}), {:>10} queries ({kb2} ⊂ {kb1})",
            row.label, row.kb1_in_kb2_cost, row.kb2_in_kb1_cost,
        );
    }
    println!("\ntotal wall time: {elapsed:.2?}");
    Ok(())
}

/// S8. Separates the methods' effect from seed luck.
fn table1_multiseed(options: &Options) -> Result<(), Box<dyn Error>> {
    let scale = options.scale;
    let seeds: Vec<u64> = (0..options.seeds).map(|i| options.seed + i).collect();

    eprintln!("running Table 1 over seeds {seeds:?} at {scale:?} scale…");
    let rows = table1_over_seeds(
        &seeds,
        |s| scale.pair_config(s),
        options.sample_size,
        options.threads,
    )?;

    let mut table = Table::new(direction_header("ILP", "kb1", "kb2"));
    for row in &rows {
        table.push(vec![
            row.label.clone(),
            row.kb1_in_kb2_p.to_string(),
            row.kb1_in_kb2_f1.to_string(),
            row.kb2_in_kb1_p.to_string(),
            row.kb2_in_kb1_f1.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "({} seeds, sample size {})",
        seeds.len(),
        options.sample_size
    );
    Ok(())
}

/// S1. The paper: "we have selected the thresholds τ that led to the
/// highest average F1 score for both ways implications".
fn threshold_sweep(options: &Options) -> Result<(), Box<dyn Error>> {
    let pair = options.generate_pair();
    let taus: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();

    for ((label, base), paper_tau) in methods(options.seed)[..2].iter().zip(["0.3", "0.1"]) {
        eprintln!("sweeping τ for {label}…");
        let points = sweep::threshold_sweep(&pair, base, &taus, options.threads)?;
        let mut header = direction_header("tau", pair.kb1_name(), pair.kb2_name());
        header.push("mean F1".into());
        let mut table = Table::new(header);
        for p in &points {
            let mut row = direction_row(format!("{:.2}", p.x), &p.backward, &p.forward);
            row.push(format!("{:.3}", p.mean_f1()));
            table.push(row);
        }
        println!("\n== {label}\n{}", table.render());
        if let Some(best) = sweep::best_tau(&points) {
            println!("best τ by mean F1: {best:.2} (paper used {paper_tau} for this measure)");
        }
    }
    Ok(())
}

/// S5. SOFYA leans on entity links for sampling, translation and UBS's
/// contrastive checks; this measures how gracefully quality degrades.
fn coverage_sweep(options: &Options) -> Result<(), Box<dyn Error>> {
    let coverages = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    let mut table = table(&[
        "sameAs coverage",
        "UBS P (kb2⊂kb1)",
        "UBS R (kb2⊂kb1)",
        "UBS F1 (kb2⊂kb1)",
        "SSE P",
        "SSE F1",
    ]);
    let scores = sensitivity_sweep(options, "coverage", coverages, |config, coverage| {
        config.same_as_coverage = coverage;
    })?;
    for (coverage, [ubs, sse]) in coverages.iter().zip(&scores) {
        let [sse_p, _, sse_f1] = prf(sse);
        let mut row = vec![format!("{coverage:.1}")];
        row.extend(prf(ubs));
        row.extend([sse_p, sse_f1]);
        table.push(row);
    }
    println!("{}", table.render());
    Ok(())
}

/// S6. `pcaconf` assumes a KB knows all or none of the `r`-attributes of
/// a subject. Fact-level drops violate that: they erode the confidence
/// of true rules and create false contradictions for UBS (where the
/// paper's dbpd⊂yago recall of 0.75 comes from).
fn incompleteness_sweep(options: &Options) -> Result<(), Box<dyn Error>> {
    let drops = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4];
    let mut table = table(&[
        "kb1 fact drop",
        "UBS P",
        "UBS R",
        "UBS F1",
        "SSE P",
        "SSE R",
        "SSE F1",
    ]);
    let scores = sensitivity_sweep(options, "fact drop", drops, |config, drop| {
        config.kb1.fact_drop = drop;
    })?;
    for (drop, [ubs, sse]) in drops.iter().zip(&scores) {
        let mut row = vec![format!("{drop:.2}")];
        row.extend(prf(ubs));
        row.extend(prf(sse));
        table.push(row);
    }
    println!("{}", table.render());
    println!("UBS recall decays with fact-level incompleteness of the conclusion KB —");
    println!("each contrastive check risks a false contradiction; precision stays high.");
    Ok(())
}

/// S7. §2.1: "Equivalence of relations is expressed as a double
/// subsumption."
fn equivalence_table(options: &Options) -> Result<(), Box<dyn Error>> {
    let pair = options.generate_pair();

    let mut table = table(&["method", "mined", "P", "R", "F1"]);
    for (label, config) in methods(options.seed) {
        eprintln!("mining equivalences with {label}…");
        let out = mine_equivalences(&pair, &config, options.threads)?;
        let mut row = vec![label.to_owned(), out.mined.len().to_string()];
        row.extend(prf(&out.metrics));
        table.push(row);
    }
    println!("{}", table.render());
    Ok(())
}

/// S2. The paper evaluates at 10 sample subjects and claims high
/// accuracy "based on only very small samples" and, "since our method
/// works with few queries", use at query time. Each method — Table 1's
/// three, and UBS with only one of the two contrastive checks that §2.2
/// motivates — at each sample size, over `--seeds` pairs: P/R/F1 per
/// direction as mean ± sd, next to what a relation costs. A request is
/// a round trip: a table of probes counts once.
fn frontier(options: &Options) -> Result<(), Box<dyn Error>> {
    let Options { scale, threads, .. } = *options;
    // Per method, size and direction: one [P, R, F1, queries, requests,
    // rows] per seed, the costs per relation.
    let mut rows: Vec<([String; 3], Vec<[f64; 6]>)> = Vec::new();
    let mut triples = None;
    for seed in (0..options.seeds).map(|i| options.seed + i) {
        eprintln!("generating pair: scale {scale:?}, seed {seed}…");
        let pair = generate(&scale.pair_config(seed));
        let (kb1, kb2) = (pair.kb1_name(), pair.kb2_name());
        triples.get_or_insert((pair.kb1.len(), pair.kb2.len()));
        let [pca, cwa, (label, ubs)] = methods(seed);
        let ablation = |strategy| AlignerConfig {
            strategy,
            ..ubs.clone()
        };
        let methods = [
            pca,
            cwa,
            (label, ubs.clone()),
            (
                "UBS premise-side only",
                ablation(SamplingStrategy::UnbiasedPremiseOnly),
            ),
            (
                "UBS conclusion-side only",
                ablation(SamplingStrategy::UnbiasedConclusionOnly),
            ),
        ];
        let mut row = 0;
        for (label, method) in methods {
            eprintln!("  {label}…");
            for sample_size in [1, 2, 5, 10, 20, 50] {
                let config = AlignerConfig {
                    sample_size,
                    ..method.clone()
                };
                let (fwd, bwd) = align_pair(&pair, &config, threads)?;
                for (out, premises, conclusions) in [(fwd, kb2, kb1), (bwd, kb1, kb2)] {
                    let m = evaluate_rules(&out.rules, &pair.gold, premises, conclusions);
                    if rows.len() == row {
                        let direction = format!("{premises} ⊂ {conclusions}");
                        rows.push((
                            [label.to_owned(), sample_size.to_string(), direction],
                            vec![],
                        ));
                    }
                    rows[row].1.push([
                        m.precision(),
                        m.recall(),
                        m.f1(),
                        out.queries_per_relation(),
                        out.requests_per_relation(),
                        out.rows_per_relation(),
                    ]);
                    row += 1;
                }
            }
        }
    }

    let mut table = table(&[
        "method",
        "sample",
        "direction",
        "P",
        "R",
        "F1",
        "queries/relation",
        "requests/relation",
        "rows/relation",
    ]);
    for (name, samples) in &rows {
        let mut row = name.to_vec();
        for i in 0..6 {
            let column = Aggregate::of(&samples.iter().map(|s| s[i]).collect::<Vec<_>>());
            row.push(match i {
                0..=2 => column.to_string(),
                _ => format!("{:.1}±{:.1}", column.mean, column.std_dev),
            });
        }
        table.push(row);
    }
    println!("{}", table.render());
    if let Some((kb1, kb2)) = triples {
        println!("for scale: downloading the KBs outright would move {kb1} + {kb2} triples");
    }
    Ok(())
}

fn export_pair(options: &Options) -> Result<(), Box<dyn Error>> {
    let out = &options.out;
    let pair = options.generate_pair();
    let (n1, n2) = sofya_kbgen::export_pair(&pair, out)?;
    println!(
        "wrote {} ({} triples), {} ({} triples), {} ({} gold subsumptions)",
        out.join("kb1.nt").display(),
        n1,
        out.join("kb2.nt").display(),
        n2,
        out.join("gold.tsv").display(),
        pair.gold.subsumption_count(),
    );
    Ok(())
}

/// The fastest way to see which planted trap the pruning misses.
fn diagnose(options: &Options) -> Result<(), Box<dyn Error>> {
    let seed = options.seed;
    let pair = options.generate_pair();
    let (kb1, kb2) = (pair.kb1_name(), pair.kb2_name());

    for (label, config) in [
        ("SSE pcaconf", AlignerConfig::baseline_pca(seed)),
        ("UBS pcaconf", AlignerConfig::paper_defaults(seed)),
    ] {
        let (fwd, bwd) = align_pair(&pair, &config, options.threads)?;
        for (DirectionOutcome { rules, .. }, sname, tname) in [(fwd, kb2, kb1), (bwd, kb1, kb2)] {
            println!("\n== {label} | {sname} ⊂ {tname} | {} rules", rules.len());
            for (kind, count) in classify(&pair, &rules) {
                println!("   {kind:<32} {count}");
            }
            let miss = missing(&pair, &rules, sname, tname);
            println!("   missed true rules               {}", miss.len());
            if options.verbose {
                for r in &rules {
                    if !pair.gold.is_subsumption(&r.premise, &r.conclusion) {
                        println!("   FP {r}");
                    }
                }
                for (p, c) in &miss {
                    println!("   MISS {p} ⇒ {c}");
                }
            }
        }
    }
    Ok(())
}

fn classify(pair: &GeneratedPair, rules: &[SubsumptionRule]) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in rules {
        let label = if pair.gold.is_subsumption(&r.premise, &r.conclusion) {
            "true"
        } else {
            match pair.gold.kind(&r.premise, &r.conclusion) {
                Some(MappingKind::Overlapping) => "FP: planted overlap",
                Some(MappingKind::SubsumedBy) => "FP: reverse of true subsumption",
                Some(MappingKind::Equivalent) => "FP: equivalent (impossible)",
                None => {
                    if pair.gold.is_subsumption(&r.conclusion, &r.premise) {
                        "FP: reverse of true subsumption"
                    } else {
                        "FP: unplanted coincidence"
                    }
                }
            }
        };
        *counts.entry(label).or_insert(0) += 1;
    }
    counts
}

fn missing(
    pair: &GeneratedPair,
    rules: &[SubsumptionRule],
    premise_kb: &str,
    conclusion_kb: &str,
) -> Vec<(String, String)> {
    let predicted: BTreeSet<(String, String)> = rules
        .iter()
        .map(|r| (r.premise.clone(), r.conclusion.clone()))
        .collect();
    pair.gold
        .subsumptions_between(premise_kb, conclusion_kb)
        .into_iter()
        .filter(|pc| !predicted.contains(pc))
        .collect()
}
