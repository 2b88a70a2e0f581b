//! Hostile-input fuzz harness (ISSUE 4 tentpole coverage): every
//! mutator class is driven through the full pipeline with several
//! seeds. The pipeline must never panic — there is deliberately no
//! `catch_unwind` anywhere in here, so a panic in any stage fails the
//! test instead of being masked. Strict mode must fail with a *typed*
//! error; lenient mode must always return, and whenever it degrades
//! it must say so through diagnostics or incomplete coverage.

use std::path::PathBuf;
use std::sync::OnceLock;

use cati::obs::{Recorder, NOOP};
use cati::{ArtifactCache, Cati, CatiError, Config, PipelineStage};
use cati_analysis::{
    extract, extract_lenient_mode_observed, ContextMode, FeatureView, LenientExtraction,
};
use cati_dwarf::{
    CType, DebugInfo, DwarfError, FuncRecord, IntWidth, Signedness, VarLocation, VarRecord,
};
use cati_synbin::{build_corpus, Corpus, CorpusConfig, MutationKind};
use proptest::prelude::*;

fn fixture_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/hostile"
    ))
}

/// Function-local lenient extraction.
fn extract_lenient(binary: &cati_asm::binary::Binary, view: FeatureView) -> LenientExtraction {
    extract_lenient_mode_observed(binary, view, ContextMode::FunctionLocal, &NOOP)
}

/// One small trained system shared by every test in this file.
fn trained() -> &'static (Cati, Corpus) {
    static CELL: OnceLock<(Cati, Corpus)> = OnceLock::new();
    CELL.get_or_init(|| {
        let corpus = build_corpus(&CorpusConfig::small(4));
        let n = corpus.train.len().min(4);
        let cati = Cati::train(&corpus.train[..n], &Config::small(), &NOOP);
        (cati, corpus)
    })
}

/// Extraction-level sweep: broad (every mutator × seeds × binaries)
/// because extraction is cheap. Strict returns a typed `Result`;
/// lenient returns internally consistent coverage and never hides a
/// degradation.
#[test]
fn every_mutator_class_degrades_honestly_at_extraction() {
    let (_, corpus) = trained();
    for (bi, built) in corpus.test.iter().take(2).enumerate() {
        for kind in MutationKind::ALL {
            for s in 0..3u64 {
                let seed = 1000 * (bi as u64 + 1) + s;
                let (mutant, record) = cati_synbin::mutate(&built.binary, kind, seed);
                let strict = extract(&mutant, FeatureView::Stripped);
                let lenient = extract_lenient(&mutant, FeatureView::Stripped);
                let cov = &lenient.coverage;
                assert_eq!(
                    cov.bytes_total,
                    mutant.text.len() as u64,
                    "coverage lies about the text size on {record}"
                );
                assert!(
                    cov.functions_skipped <= cov.functions_total,
                    "skipped more functions than exist on {record}"
                );
                assert!(
                    cov.bytes_skipped <= cov.bytes_total,
                    "skipped more bytes than exist on {record}"
                );
                assert_eq!(
                    cov.vars,
                    lenient.extraction.vars.len() as u64,
                    "coverage var count disagrees with the extraction on {record}"
                );
                match strict {
                    Ok(_) => {}
                    Err(e) => {
                        // A typed failure with a stage attribution and a
                        // human-readable message...
                        assert!(!e.to_string().is_empty());
                        let _: PipelineStage = e.stage();
                        // ...and the lenient run must not pretend the
                        // binary was clean.
                        assert!(
                            !lenient.diagnostics.is_empty() || !cov.is_complete(),
                            "strict failed ({e}) but lenient reported a \
                             complete, diagnostic-free run on {record}"
                        );
                    }
                }
                if cov.functions_skipped > 0 {
                    assert!(
                        !lenient.diagnostics.is_empty(),
                        "functions were skipped silently on {record}"
                    );
                }
            }
        }
    }
}

/// Interprocedural lenient extraction under corruption: a corrupt
/// callee must degrade its splices back to the function-local BLANKs
/// instead of poisoning caller windows, and splicing must never move
/// variable identity — on any mutant, the surviving `VarKey`s are the
/// same set in both context modes, and every slot the function-local
/// window fills is byte-identical in the interprocedural window.
#[test]
fn interproc_lenient_degrades_splices_without_poisoning() {
    use cati_analysis::extract_mode;
    use cati_asm::generalize::GenInsn;
    let (_, corpus) = trained();
    let blank = GenInsn::blank();
    for (bi, built) in corpus.test.iter().take(2).enumerate() {
        // Clean baseline: lenient interproc equals strict interproc.
        let strict = extract_mode(
            &built.binary.strip(),
            FeatureView::Stripped,
            ContextMode::Interprocedural,
        )
        .unwrap();
        let clean = extract_lenient_mode_observed(
            &built.binary.strip(),
            FeatureView::Stripped,
            ContextMode::Interprocedural,
            &NOOP,
        );
        assert_eq!(strict.vars, clean.extraction.vars, "clean lenient drifted");
        assert_eq!(strict.vucs, clean.extraction.vucs, "clean lenient drifted");

        for kind in MutationKind::ALL {
            for s in 0..2u64 {
                let seed = 5000 * (bi as u64 + 1) + s;
                let (mutant, record) = cati_synbin::mutate(&built.binary, kind, seed);
                let ip = extract_lenient_mode_observed(
                    &mutant,
                    FeatureView::Stripped,
                    ContextMode::Interprocedural,
                    &NOOP,
                );
                let fl = extract_lenient_mode_observed(
                    &mutant,
                    FeatureView::Stripped,
                    ContextMode::FunctionLocal,
                    &NOOP,
                );
                let ip_keys: Vec<_> = ip.extraction.vars.iter().map(|v| v.key).collect();
                let fl_keys: Vec<_> = fl.extraction.vars.iter().map(|v| v.key).collect();
                assert_eq!(
                    ip_keys, fl_keys,
                    "context mode changed surviving variable identity on {record}"
                );
                assert_eq!(
                    ip.extraction.vucs.len(),
                    fl.extraction.vucs.len(),
                    "context mode changed VUC count on {record}"
                );
                for (wi, (iw, fw)) in ip
                    .extraction
                    .vucs
                    .iter()
                    .zip(&fl.extraction.vucs)
                    .enumerate()
                {
                    for (slot, (is_, fs)) in iw.insns.iter().zip(&fw.insns).enumerate() {
                        if *fs != blank {
                            assert_eq!(
                                is_, fs,
                                "window {wi} slot {slot}: splicing rewrote a local \
                                 instruction on {record}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Model-level sweep: one seed per mutator class through full strict
/// and lenient inference. Lenient inference must return a partial
/// result whose coverage matches the report.
#[test]
fn lenient_inference_returns_partial_results_on_every_mutator_class() {
    let (cati, corpus) = trained();
    let built = &corpus.test[0];
    for (i, kind) in MutationKind::ALL.into_iter().enumerate() {
        let (mutant, record) = cati_synbin::mutate(&built.binary, kind, 7000 + i as u64);
        // Strict inference on the stripped mutant: Ok or a typed error,
        // never a panic (nothing here catches unwinds).
        let strict = cati.infer(&mutant.strip());
        let report = cati.infer_lenient(&mutant);
        assert_eq!(
            report.vars.len() as u64,
            report.coverage.vars,
            "report var count disagrees with its coverage on {record}"
        );
        assert_eq!(
            report.coverage.bytes_total,
            mutant.text.len() as u64,
            "coverage lies about the text size on {record}"
        );
        for v in &report.vars {
            assert!(
                v.confidence.is_finite() && v.confidence >= 0.0,
                "non-finite confidence on {record}"
            );
        }
        if strict.is_err() && mutant.symbols.is_empty() {
            // Without symbols the lenient path resynchronizes; it must
            // still have explained itself.
            assert!(
                !report.diagnostics.is_empty() || !report.coverage.is_complete(),
                "silent degradation on {record}"
            );
        }
    }
}

/// Strict mode is a contract: an undecodable text section surfaces as
/// `CatiError::Decode` attributed to the decode stage, end to end.
#[test]
fn strict_mode_surfaces_typed_decode_errors() {
    let (cati, corpus) = trained();
    let built = &corpus.test[0];
    let mut seen_decode_err = false;
    for seed in 0..6u64 {
        let (mutant, _) = cati_synbin::mutate(&built.binary, MutationKind::SpliceOpcode, seed);
        match cati.infer(&mutant.strip()) {
            Ok(_) => {}
            Err(e @ CatiError::Decode(_)) => {
                assert_eq!(e.stage(), PipelineStage::Decode);
                assert!(
                    e.to_string().contains("undecodable"),
                    "unhelpful decode error: {e}"
                );
                seen_decode_err = true;
            }
            Err(other) => panic!("splice produced a non-decode error: {other}"),
        }
    }
    assert!(
        seen_decode_err,
        "no spliced mutant tripped the strict decoder in six seeds"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A corrupted on-disk artifact-cache entry — bit flip, truncation
    /// or wholesale garbage — is always detected by the integrity
    /// envelope and recomputed bit-identically, never deserialized.
    #[test]
    fn corrupt_artifact_cache_entries_recompute_bit_identically(
        file_pick in any::<prop::sample::Index>(),
        byte_pick in any::<prop::sample::Index>(),
        bit in 0u8..8,
        shape in 0u8..3,
        case in 0u32..1_000_000,
    ) {
        let (cati, corpus) = trained();
        let stripped = corpus.test[0].binary.strip();
        let baseline = cati.infer(&stripped).unwrap();

        let dir = std::env::temp_dir().join(format!(
            "cati_hostile_cache_{}_{case}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = ArtifactCache::open(&dir).unwrap();
        let cold = cati.infer_cached(&stripped, Some(&cache), &Recorder::silent()).unwrap();
        prop_assert_eq!(&cold, &baseline);

        // Corrupt one stored entry.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        prop_assert!(!files.is_empty(), "cold run stored no artifacts");
        let victim = &files[file_pick.index(files.len())];
        let mut bytes = std::fs::read(victim).unwrap();
        match shape {
            0 => {
                let i = byte_pick.index(bytes.len());
                bytes[i] ^= 1 << bit;
            }
            1 => bytes.truncate(byte_pick.index(bytes.len())),
            _ => bytes = b"not an artifact at all".to_vec(),
        }
        std::fs::write(victim, &bytes).unwrap();

        // The warm run must detect the damage, recompute, and agree
        // with the uncached result bit for bit.
        let warm_rec = Recorder::silent();
        let warm = cati.infer_cached(&stripped, Some(&cache), &warm_rec).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(&warm, &baseline, "corruption leaked into inference");
        prop_assert!(
            warm_rec.metrics().counter_value("cache.miss") >= 1,
            "corrupted entry was served as a hit"
        );
    }
}

// ---------------------------------------------------------------------------
// Minimized regression fixtures for previously-panicking sites.
// ---------------------------------------------------------------------------

/// Rebuilds `tests/fixtures/hostile/`. Run manually after changing the
/// fixture set:
/// `cargo test -p cati --test hostile_pipeline regenerate -- --ignored`
#[test]
#[ignore = "fixture regenerator; run with -- --ignored to rebuild"]
fn regenerate_hostile_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();

    // 1. A debug section whose variable references struct #7 of an
    //    empty table (used to drive `size_of` out of bounds).
    let bad_ref = DebugInfo {
        types: cati_dwarf::TypeTable {
            structs: vec![],
            enums: vec![],
        },
        functions: vec![FuncRecord {
            name: "f".into(),
            entry: 0x40_1000,
            code_len: 16,
            vars: vec![VarRecord {
                name: "v".into(),
                ty: CType::Struct(7),
                location: VarLocation::Frame(-8),
                is_param: false,
            }],
        }],
    };
    std::fs::write(dir.join("dwarf_bad_struct_index.bin"), bad_ref.to_bytes()).unwrap();

    // 2. An array whose element-count × element-size overflows u32
    //    (used to panic size_of under debug assertions).
    let overflow = DebugInfo {
        types: cati_dwarf::TypeTable {
            structs: vec![],
            enums: vec![],
        },
        functions: vec![FuncRecord {
            name: "g".into(),
            entry: 0x40_1000,
            code_len: 16,
            vars: vec![VarRecord {
                name: "huge".into(),
                ty: CType::Array(
                    Box::new(CType::Integer(IntWidth::Int, Signedness::Signed)),
                    u32::MAX,
                ),
                location: VarLocation::Frame(-8),
                is_param: false,
            }],
        }],
    };
    std::fs::write(dir.join("dwarf_array_overflow.bin"), overflow.to_bytes()).unwrap();

    // 3. AT&T lines with a close-paren before the open-paren (used to
    //    slice-panic the memory-operand parser).
    std::fs::write(
        dir.join("asm_mem_close_before_open.txt"),
        "movq )x(,%rax\nmov )(\nleaq )-8(%rbp,%rax,4(,%rcx\naddl )),%eax\n",
    )
    .unwrap();

    // 4. A whole binary desynchronized mid-function (stale symbols),
    //    serialized as JSON.
    let corpus = build_corpus(&CorpusConfig::small(4));
    let (mutant, record) = cati_synbin::mutate(&corpus.test[0].binary, MutationKind::Desync, 11);
    let json = serde_json::to_string(&serde_json::json!({
        "mutation": record,
        "binary": mutant,
    }))
    .unwrap();
    std::fs::write(dir.join("desync_mid_function.json"), json).unwrap();
}

#[test]
fn fixture_dangling_struct_ref_is_rejected_not_panicking() {
    let bytes = std::fs::read(fixture_dir().join("dwarf_bad_struct_index.bin"))
        .expect("missing fixture; run the regenerator");
    match DebugInfo::parse(&bytes) {
        Err(DwarfError::BadTypeRef { index: 7, .. }) => {}
        other => panic!("expected BadTypeRef {{ index: 7 }}, got {other:?}"),
    }
}

#[test]
fn fixture_array_overflow_saturates_instead_of_panicking() {
    let bytes = std::fs::read(fixture_dir().join("dwarf_array_overflow.bin"))
        .expect("missing fixture; run the regenerator");
    let di = DebugInfo::parse(&bytes).unwrap();
    let ty = &di.functions[0].vars[0].ty;
    // Under debug assertions the old multiply panicked; now it must
    // saturate and stay total.
    assert_eq!(di.types.size_of(ty), u32::MAX);
    assert!(di.types.align_of(ty) >= 1);
}

#[test]
fn fixture_malformed_att_lines_parse_to_errors() {
    let text = std::fs::read_to_string(fixture_dir().join("asm_mem_close_before_open.txt"))
        .expect("missing fixture; run the regenerator");
    for line in text.lines() {
        assert!(
            cati_asm::parse::parse_insn(line).is_err(),
            "malformed line parsed: {line}"
        );
    }
}

#[test]
fn fixture_desynchronized_binary_is_isolated_not_fatal() {
    let json = std::fs::read_to_string(fixture_dir().join("desync_mid_function.json"))
        .expect("missing fixture; run the regenerator");
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    let mutant: cati_asm::binary::Binary =
        serde_json::from_str(&serde_json::to_string(&value["binary"]).unwrap()).unwrap();
    // The stale symbol table no longer matches the shifted bytes:
    // strict extraction must fail typed, lenient must salvage what it
    // can and account for the rest.
    let lenient = extract_lenient(&mutant, FeatureView::Stripped);
    if extract(&mutant, FeatureView::Stripped).is_err() {
        assert!(!lenient.diagnostics.is_empty() || !lenient.coverage.is_complete());
    }
    assert_eq!(lenient.coverage.bytes_total, mutant.text.len() as u64);
}
