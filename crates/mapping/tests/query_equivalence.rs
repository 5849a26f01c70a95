//! Logical data independence, tested: the same ERQL query must return the
//! same logical result under every valid mapping — this is the property the
//! whole paper rests on. We run the paper's query shapes (Section 6)
//! against all seven mappings and compare normalized results.

use erbium_mapping::presets::paper;
use erbium_mapping::rewrite::run_query;
use erbium_mapping::{CoFormat, EntityData, EntityStore, Lowering, Mapping};
use erbium_model::fixtures;
use erbium_model::ErSchema;
use erbium_storage::{Catalog, Row, Transaction, Value};

fn all_mappings(s: &ErSchema) -> Vec<Mapping> {
    vec![
        paper::m1(s),
        paper::m2(s),
        paper::m3(s),
        paper::m4(s),
        paper::m5(s).unwrap(),
        paper::m6(s, CoFormat::Denormalized).unwrap(),
        paper::m6(s, CoFormat::Factorized).unwrap(),
    ]
}

fn data(pairs: &[(&str, Value)]) -> EntityData {
    pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

fn ints(vals: &[i64]) -> Value {
    Value::Array(vals.iter().map(|&v| Value::Int(v)).collect())
}

/// Deterministic mid-size instance exercising every schema feature.
fn populate(cat: &mut Catalog, store: &EntityStore<'_>) {
    let mut txn = Transaction::new();
    let n_s = 10i64;
    for sid in 0..n_s {
        store
            .insert(
                cat,
                &mut txn,
                "S",
                &data(&[
                    ("s_id", Value::Int(sid)),
                    ("s_a", Value::str(format!("s{sid}"))),
                    ("s_b", Value::Int(sid % 4)),
                ]),
                &[],
            )
            .unwrap();
        for no in 0..(sid % 3 + 1) {
            store
                .insert(
                    cat,
                    &mut txn,
                    "S1",
                    &data(&[
                        ("s_id", Value::Int(sid)),
                        ("s1_no", Value::Int(no)),
                        ("s1_a", Value::Int(sid * 10 + no)),
                        ("s1_b", Value::str(format!("w{sid}-{no}"))),
                    ]),
                    &[],
                )
                .unwrap();
        }
        if sid % 2 == 0 {
            store
                .insert(
                    cat,
                    &mut txn,
                    "S2",
                    &data(&[
                        ("s_id", Value::Int(sid)),
                        ("s2_no", Value::Int(0)),
                        ("s2_a", Value::str(format!("z{sid}"))),
                    ]),
                    &[],
                )
                .unwrap();
        }
    }
    // 40 hierarchy instances cycling through the five types.
    for i in 0..40i64 {
        let mut d = data(&[
            ("r_id", Value::Int(i)),
            ("r_a", Value::str(format!("r{i}"))),
            ("r_b", Value::Int(i % 7)),
            ("r_mv1", ints(&[i % 5, i % 3 + 10])),
            ("r_mv2", ints(&[i % 5, i % 11 + 20])),
            ("r_mv3", Value::Array(vec![Value::str(format!("t{}", i % 4))])),
        ]);
        let ty = match i % 5 {
            0 => "R",
            1 => {
                d.insert("r1_a".into(), Value::Int(i * 2));
                d.insert("r1_b".into(), Value::str("b1"));
                "R1"
            }
            2 => {
                d.insert("r2_a".into(), Value::Int(i * 3));
                d.insert("r2_b".into(), Value::str("b2"));
                "R2"
            }
            3 => {
                d.insert("r1_a".into(), Value::Int(i * 2));
                d.insert("r1_b".into(), Value::str("b13"));
                d.insert("r3_a".into(), Value::Int(i * 4));
                "R3"
            }
            _ => {
                d.insert("r2_a".into(), Value::Int(i * 3));
                d.insert("r2_b".into(), Value::str("b24"));
                d.insert("r4_a".into(), Value::str(format!("f{i}")));
                "R4"
            }
        };
        let links = vec![("r_s", vec![Value::Int(i % n_s)])];
        store.insert(cat, &mut txn, ty, &d, &links).unwrap();
    }
    // r2_s1 links: each R2/R4 instance to one or two S1 instances.
    for i in (2..40i64).step_by(5) {
        store
            .link(cat, &mut txn, "r2_s1", &[Value::Int(i)], &[Value::Int(i % 10), Value::Int(0)], &EntityData::default())
            .unwrap();
    }
    for i in (4..40i64).step_by(5) {
        store
            .link(cat, &mut txn, "r2_s1", &[Value::Int(i)], &[Value::Int(i % 10), Value::Int(0)], &EntityData::default())
            .unwrap();
        if (i % 10) % 3 != 0 {
            store
                .link(
                    cat,
                    &mut txn,
                    "r2_s1",
                    &[Value::Int(i)],
                    &[Value::Int(i % 10), Value::Int(1)],
                    &EntityData::default(),
                )
                .unwrap();
        }
    }
    // r1_r3 links.
    for i in (1..40i64).step_by(5) {
        let target = ((i + 2) / 5) * 5 + 3;
        if target < 40 {
            store
                .link(cat, &mut txn, "r1_r3", &[Value::Int(i)], &[Value::Int(target)], &EntityData::default())
                .unwrap();
        }
    }
    txn.commit();
}

/// Normalize rows: sort arrays inside values, then sort rows.
fn canon(mut rows: Vec<Row>) -> Vec<Row> {
    fn norm(v: &mut Value) {
        if let Value::Array(vs) = v {
            for x in vs.iter_mut() {
                norm(x);
            }
            vs.sort();
        }
        if let Value::Struct(vs) = v {
            for x in vs.iter_mut() {
                norm(x);
            }
        }
    }
    for r in rows.iter_mut() {
        for v in r.iter_mut() {
            norm(v);
            // Treat NULL arrays (left-join miss) and empty arrays alike.
            if matches!(v, Value::Array(a) if a.is_empty()) {
                *v = Value::Null;
            }
        }
    }
    rows.sort();
    rows
}

/// Run `sql` under every mapping and assert identical canonical results.
/// Returns the reference result for additional assertions.
fn assert_equivalent(sql: &str) -> Vec<Row> {
    let schema = fixtures::experiment();
    let mut reference: Option<(String, Vec<Row>)> = None;
    for mapping in all_mappings(&schema) {
        let lw = Lowering::build(&schema, &mapping).unwrap();
        let mut cat = Catalog::new();
        lw.install(&mut cat).unwrap();
        let store = EntityStore::new(&lw);
        populate(&mut cat, &store);
        let (_, rows) = run_query(&lw, &cat, sql)
            .unwrap_or_else(|e| panic!("mapping {}: query failed: {e}\nsql: {sql}", mapping.name));
        let rows = canon(rows);
        match &reference {
            None => reference = Some((mapping.name.clone(), rows)),
            Some((ref_name, expect)) => {
                assert_eq!(
                    expect, &rows,
                    "query results differ between '{ref_name}' and '{}' for: {sql}",
                    mapping.name
                );
            }
        }
    }
    reference.expect("at least one mapping").1
}

#[test]
fn e1_all_multivalued_attributes() {
    let rows = assert_equivalent("SELECT r.r_id, r.r_mv1, r.r_mv2, r.r_mv3 FROM R r");
    assert_eq!(rows.len(), 40);
}

#[test]
fn e2_unnest_one_attribute() {
    let rows = assert_equivalent("SELECT UNNEST(r.r_mv1) FROM R r");
    assert_eq!(rows.len(), 80, "two values per instance");
}

#[test]
fn e3_point_lookup() {
    let rows = assert_equivalent("SELECT r.r_mv1 FROM R r WHERE r.r_id = 17");
    assert_eq!(rows.len(), 1);
}

#[test]
fn e4_mv_intersection() {
    let rows = assert_equivalent(
        "SELECT r.r_id, UNNEST(r.r_mv1) AS v FROM R r \
         WHERE UNNEST(r.r_mv1) = UNNEST(r.r_mv2)",
    );
    // Every instance has i%5 in both mv1 and mv2.
    assert!(rows.len() >= 40, "at least the shared i%5 value per instance");
}

#[test]
fn e5_subclass_scan() {
    let rows =
        assert_equivalent("SELECT r.r_id, r.r_a, r.r_b, r.r1_a, r.r1_b, r.r3_a FROM R3 r");
    assert_eq!(rows.len(), 8);
}

#[test]
fn e6_join_r_s_with_predicates() {
    let rows = assert_equivalent(
        "SELECT r.r_id, s.s_id, s.s_a FROM R r JOIN S s VIA r_s \
         WHERE r.r_b = 2 AND s.s_b = 2",
    );
    assert!(!rows.is_empty());
}

#[test]
fn e7_weak_fetch_by_ids() {
    let rows = assert_equivalent(
        "SELECT s.s_id, s.s_a, w.s1_no, w.s1_a, z.s2_a \
         FROM S s JOIN S1 w VIA s_s1 LEFT JOIN S2 z VIA s_s2 \
         WHERE s.s_id IN (2, 4, 6)",
    );
    assert!(!rows.is_empty());
}

#[test]
fn e8_weak_join_r() {
    let rows = assert_equivalent(
        "SELECT w.s_id, w.s1_no, r.r_id, r.r_a FROM S1 w JOIN R2 r VIA r2_s1",
    );
    assert!(!rows.is_empty());
}

#[test]
fn left_join_on_keeps_unmatched_rows() {
    // r_b = i % 7 meets s_b = sid % 4 in 3/3/2/2 S rows for r_b = 0..3;
    // the 16 R rows with r_b >= 4 match nothing and are padded.
    let rows =
        assert_equivalent("SELECT r.r_id, s.s_id FROM R r LEFT JOIN S s ON r.r_b = s.s_b");
    assert_eq!(rows.len(), 76);
    assert_eq!(rows.iter().filter(|r| r[1].is_null()).count(), 16);
    let rows = assert_equivalent(
        "SELECT r.r_id, s.s_id FROM R r JOIN S s ON r.r_b = s.s_b AND r.r_id < 10",
    );
    assert_eq!(rows.len(), 18);
}

#[test]
fn left_via_join_with_on_filters_the_joined_side() {
    // S1 rows with s1_a < 50 belong to s_id 0..4 (9 of them); S rows 5..9
    // keep one padded row each.
    let rows = assert_equivalent(
        "SELECT s.s_id, w.s1_no FROM S s LEFT JOIN S1 w VIA s_s1 ON w.s1_a < 50",
    );
    assert_eq!(rows.len(), 14);
    assert_eq!(rows.iter().filter(|r| r[1].is_null()).count(), 5);
}

#[test]
fn left_via_join_over_colocated_relationship_keeps_unmatched_rows() {
    // 19 S1 rows; the 5 linked ones fan out to 20 pairs, the other 14 are
    // padded. Under M6 the joined R2 binding's ancestor level (R) is joined
    // after the LEFT join and must not drop the padded rows.
    let rows =
        assert_equivalent("SELECT w.s_id, w.s1_no, r.r_id, r.r_a FROM S1 w LEFT JOIN R2 r VIA r2_s1");
    assert_eq!(rows.len(), 34);
    assert_eq!(rows.iter().filter(|r| r[2].is_null()).count(), 14);
}

#[test]
fn e9_colocated_join() {
    let rows = assert_equivalent(
        "SELECT r.r_id, r.r2_a, w.s1_a FROM R2 r JOIN S1 w VIA r2_s1 WHERE r.r_b >= 0",
    );
    assert!(!rows.is_empty());
}

#[test]
fn single_table_scan_on_colocated_entity() {
    // The "queries that only involve one of those two tables" case for M6.
    let rows = assert_equivalent("SELECT r.r_id, r.r2_a, r.r2_b FROM R2 r");
    assert_eq!(rows.len(), 16, "R2 + R4 instances");
    // sum over sid of (sid % 3 + 1) children = 19 instances.
    let rows = assert_equivalent("SELECT w.s_id, w.s1_no, w.s1_a FROM S1 w");
    assert_eq!(rows.len(), 19);
}

#[test]
fn superclass_polymorphic_scan() {
    let rows = assert_equivalent("SELECT r.r_id, r.r_a, r.r_b FROM R r WHERE r.r_b = 3");
    assert!(!rows.is_empty());
}

#[test]
fn aggregates_with_inferred_grouping() {
    let rows = assert_equivalent(
        "SELECT s.s_b, COUNT(*) AS n, AVG(r.r_b) AS avg_b \
         FROM S s JOIN R r VIA r_s GROUP BY s.s_b",
    );
    assert_eq!(rows.len(), 4);
    // Inferred grouping gives identical results.
    let rows2 = assert_equivalent(
        "SELECT s.s_b, COUNT(*) AS n, AVG(r.r_b) AS avg_b FROM S s JOIN R r VIA r_s",
    );
    assert_eq!(rows, rows2);
}

#[test]
fn nested_output() {
    let rows = assert_equivalent(
        "SELECT s.s_id, NEST(w.s1_no, w.s1_a) AS children FROM S s JOIN S1 w VIA s_s1",
    );
    assert_eq!(rows.len(), 10);
}

#[test]
fn order_by_and_limit() {
    let rows = assert_equivalent(
        "SELECT r.r_id, r.r_b FROM R r ORDER BY r_b DESC, r_id ASC LIMIT 5",
    );
    assert_eq!(rows.len(), 5);
}

#[test]
fn distinct_projection() {
    let rows = assert_equivalent("SELECT DISTINCT r.r_b FROM R r");
    assert_eq!(rows.len(), 7);
}

#[test]
fn wildcard_includes_multivalued() {
    let rows = assert_equivalent("SELECT * FROM R3 r WHERE r.r_id = 3");
    assert_eq!(rows.len(), 1);
    // r_id, r_a, r_b, 3 mv arrays, r1_a, r1_b, r3_a
    assert_eq!(rows[0].len(), 9);
}

#[test]
fn count_star_over_colocated_relationship() {
    let rows = assert_equivalent(
        "SELECT COUNT(*) AS n FROM R2 r JOIN S1 w VIA r2_s1",
    );
    assert_eq!(rows.len(), 1);
    let n = rows[0][0].as_int().unwrap();
    assert!(n > 0);
}
