//! Plan-shape tests: the rewriter must compile the same ERQL into the
//! physical shapes the paper reasons about — a 3-way join under the
//! normalized mapping, a `_type` filter under the merged mapping, a
//! 2-relation union under disjoint tables, a pointer-following factorized
//! scan under M6, and the direct side-table scan for unnest on M1.

use erbium_engine::{JoinKind, Plan, PlanKind};
use erbium_mapping::presets::paper;
use erbium_mapping::{CoFormat, Lowering, MappingError, QueryRewriter};
use erbium_model::fixtures;
use erbium_storage::Catalog;

fn plan_for(mapping_name: &str, sql: &str) -> Plan {
    try_plan_for(mapping_name, sql).unwrap()
}

fn try_plan_for(mapping_name: &str, sql: &str) -> Result<Plan, MappingError> {
    let schema = fixtures::experiment();
    let mapping = match mapping_name {
        "M1" => paper::m1(&schema),
        "M2" => paper::m2(&schema),
        "M3" => paper::m3(&schema),
        "M4" => paper::m4(&schema),
        "M5" => paper::m5(&schema).unwrap(),
        "M6f" => paper::m6(&schema, CoFormat::Factorized).unwrap(),
        other => panic!("unknown {other}"),
    };
    let lw = Lowering::build(&schema, &mapping).unwrap();
    let mut cat = Catalog::new();
    lw.install(&mut cat).unwrap();
    let stmt = erbium_query::parse_single(sql).unwrap();
    let erbium_query::Statement::Select(sel) = stmt else { panic!("expected select") };
    QueryRewriter::new(&lw, &cat).rewrite_optimized(&sel)
}

fn count_nodes(plan: &Plan, pred: &dyn Fn(&PlanKind) -> bool) -> usize {
    let mut n = usize::from(pred(&plan.kind));
    match &plan.kind {
        PlanKind::Filter { input, .. }
        | PlanKind::Project { input, .. }
        | PlanKind::Aggregate { input, .. }
        | PlanKind::Unnest { input, .. }
        | PlanKind::Sort { input, .. }
        | PlanKind::Limit { input, .. }
        | PlanKind::Distinct { input } => n += count_nodes(input, pred),
        PlanKind::Join { left, right, .. } => {
            n += count_nodes(left, pred) + count_nodes(right, pred);
        }
        PlanKind::Union { inputs } => {
            for i in inputs {
                n += count_nodes(i, pred);
            }
        }
        _ => {}
    }
    n
}

const E5: &str = "SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r";

#[test]
fn r3_scan_is_three_way_join_under_m1() {
    let plan = plan_for("M1", E5);
    // R3 delta ⋈ R1 delta ⋈ R root: two join nodes.
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 2, "{}", plan.explain());
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Scan { .. })), 3);
}

#[test]
fn r3_scan_is_type_filter_under_m3() {
    let plan = plan_for("M3", E5);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0, "{}", plan.explain());
    // Single scan with the _type restriction pushed into it.
    let text = plan.explain();
    assert!(text.contains("IN <set of 1>"), "{text}");
}

#[test]
fn r3_scan_is_single_table_under_m4() {
    let plan = plan_for("M4", E5);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Union { .. })), 0, "R3 has no subclasses");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Scan { .. })), 1);
}

#[test]
fn superclass_scan_is_five_way_union_under_m4() {
    // The paper: "M4 requires a 5-relation union".
    let plan = plan_for("M4", "SELECT r.r_id, r.r_a FROM R r");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Union { .. })), 1);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Scan { .. })), 5, "{}", plan.explain());
}

#[test]
fn unnest_on_m1_reads_side_table_directly() {
    // The E2 fast path: no entity table in the plan at all.
    let plan = plan_for("M1", "SELECT UNNEST(r.r_mv1) FROM R r");
    let text = plan.explain();
    assert!(text.contains("Scan R__r_mv1"), "{text}");
    assert!(!text.contains("Scan R\n"), "entity table must not be read: {text}");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0);
}

#[test]
fn unnest_on_m2_uses_unnest_operator() {
    let plan = plan_for("M2", "SELECT UNNEST(r.r_mv1) FROM R r");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Unnest { .. })), 1, "{}", plan.explain());
}

#[test]
fn bare_mv_reference_aggregates_side_table_under_m1() {
    let plan = plan_for("M1", "SELECT r.r_id, r.r_mv1 FROM R r");
    assert!(count_nodes(&plan, &|k| matches!(k, PlanKind::Aggregate { .. })) >= 1, "{}", plan.explain());
    assert!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })) >= 1);
}

#[test]
fn point_lookup_uses_index_under_m2_not_m1() {
    let q = "SELECT r.r_mv1 FROM R r WHERE r.r_id = 7";
    let m2 = plan_for("M2", q);
    assert!(count_nodes(&m2, &|k| matches!(k, PlanKind::IndexLookup { .. })) >= 1, "{}", m2.explain());
    let m1 = plan_for("M1", q);
    // M1 reaches R by index but must scan the side table (no index there).
    assert!(m1.explain().contains("Scan R__r_mv1"), "{}", m1.explain());
}

#[test]
fn via_join_follows_pointers_under_m6f() {
    let plan = plan_for("M6f", "SELECT r.r_id, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1");
    assert!(
        count_nodes(&plan, &|k| matches!(
            k,
            PlanKind::FactorizedScan { side: erbium_engine::plan::FactorizedSide::Join, .. }
        )) == 1,
        "{}",
        plan.explain()
    );
}

#[test]
fn via_join_uses_join_table_under_m1() {
    let plan = plan_for("M1", "SELECT r.r_id, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1");
    assert!(plan.explain().contains("Scan r2_s1"), "{}", plan.explain());
}

#[test]
fn weak_join_unnests_in_place_under_m5() {
    let plan = plan_for("M5", "SELECT s.s_id, w.s1_a FROM S s JOIN S1 w VIA s_s1");
    // One scan of S, an unnest, no join.
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 0, "{}", plan.explain());
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Unnest { .. })), 1);
}

#[test]
fn weak_join_is_plain_join_under_m1() {
    let plan = plan_for("M1", "SELECT s.s_id, w.s1_a FROM S s JOIN S1 w VIA s_s1");
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Join { .. })), 1);
    assert_eq!(count_nodes(&plan, &|k| matches!(k, PlanKind::Unnest { .. })), 0);
}

const MAPPINGS: [&str; 6] = ["M1", "M2", "M3", "M4", "M5", "M6f"];

/// An ON equality between a bound column and a joined one is a hash-join
/// key: the plan never filters a keyless (cartesian) join.
#[test]
fn on_equalities_become_hash_join_keys() {
    for (sql, kind) in [
        ("SELECT r.r_id, s.s_id FROM R r JOIN S s ON r.r_b = s.s_b", JoinKind::Inner),
        ("SELECT r.r_id, s.s_id FROM R r LEFT JOIN S s ON r.r_b = s.s_b", JoinKind::Left),
        ("SELECT r.r_id, s.s_id FROM R r JOIN S s ON r.r_b = s.s_b AND r.r_id < 5", JoinKind::Inner),
        ("SELECT r.r_id, s.s_id FROM R r LEFT JOIN S s ON s.s_b = r.r_b AND s.s_id < 5", JoinKind::Left),
    ] {
        for m in MAPPINGS {
            let plan = plan_for(m, sql);
            let text = plan.explain();
            assert!(!text.contains("on [] = []"), "{m}: {sql}\n{text}");
            let keyed = count_nodes(&plan, &|k| {
                matches!(k, PlanKind::Join { kind: jk, left_keys, right_keys, .. }
                    if *jk == kind && left_keys.len() == 1 && right_keys.len() == 1)
            });
            assert_eq!(keyed, 1, "{m}: {sql}\n{text}");
        }
    }
}

/// A LEFT join can place an ON conjunct only as a key or as a filter on
/// the joined input; anything else is refused rather than run above the
/// join, where it would drop the padded rows.
#[test]
fn left_join_refuses_on_conjuncts_it_cannot_place() {
    for m in MAPPINGS {
        let err = try_plan_for(m, "SELECT r.r_id FROM R r LEFT JOIN S s ON r.r_b = s.s_b AND r.r_id < 5")
            .unwrap_err();
        assert!(matches!(err, MappingError::Unsupported(_)), "{m}: {err}");
    }
}

/// ON next to VIA: a conjunct on the joined weak entity filters its input
/// below the LEFT join, also under M5, where the in-place unnest has no
/// separate input and the rewrite joins the weak entity's extent instead.
#[test]
fn left_via_join_filters_the_joined_input_for_on() {
    let sql = "SELECT s.s_id, w.s1_no FROM S s LEFT JOIN S1 w VIA s_s1 ON w.s1_a < 50";
    for m in MAPPINGS {
        let plan = plan_for(m, sql);
        let text = plan.explain();
        assert_eq!(
            count_nodes(&plan, &|k| matches!(k, PlanKind::Join { kind: JoinKind::Left, .. })),
            1,
            "{m}\n{text}"
        );
    }
}
