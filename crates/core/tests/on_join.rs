//! Explicit `JOIN … ON` through the `Database` API. ON equalities run as
//! hash-join keys, conjuncts that read only the joined entity filter its
//! input, and a LEFT join keeps every left row: the ON clause never runs
//! as a filter above a padded join, where it would drop the padded rows.

use erbium_core::{BulkEntity, Database, DbError};
use erbium_storage::Value;

const DDL: &str = "
    CREATE ENTITY a (id int KEY, x int, z int);
    CREATE ENTITY b (id int KEY, y int, w int);
";
const N_A: i64 = 2000;
const N_B: i64 = 1000;

/// `a` has x = 0..2000 and z = x % 10; `b` has y = 0, 2, 4, … and
/// w = id % 7, so every even x has exactly one match, `b` row x / 2.
fn loaded(analyzed: bool) -> Database {
    let mut db = Database::new();
    db.execute(DDL).unwrap();
    db.install_default().unwrap();
    let a: Vec<BulkEntity> = (0..N_A)
        .map(|i| {
            BulkEntity::new(&[("id", Value::Int(i)), ("x", Value::Int(i)), ("z", Value::Int(i % 10))])
        })
        .collect();
    let b: Vec<BulkEntity> = (0..N_B)
        .map(|i| {
            BulkEntity::new(&[("id", Value::Int(i)), ("y", Value::Int(2 * i)), ("w", Value::Int(i % 7))])
        })
        .collect();
    db.copy_from("a", &a).unwrap();
    db.copy_from("b", &b).unwrap();
    if analyzed {
        db.analyze();
    }
    db
}

/// `(p.id, q.id)` pairs, sorted; `None` for a padded row.
fn pairs(db: &Database, sql: &str) -> Vec<(i64, Option<i64>)> {
    let mut out: Vec<(i64, Option<i64>)> = db
        .query(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int()))
        .collect();
    out.sort();
    out
}

/// The expected `(p.id, q.id)` pairs: `a` row i matches `b` row i / 2 when
/// i is even and both sides pass their filters.
fn expected(left: bool, keep_a: impl Fn(i64) -> bool, keep_b: impl Fn(i64) -> bool) -> Vec<(i64, Option<i64>)> {
    (0..N_A)
        .filter_map(|i| {
            let hit = (i % 2 == 0 && keep_a(i) && keep_b(i / 2)).then_some(i / 2);
            match (hit, left) {
                (Some(j), _) => Some((i, Some(j))),
                (None, true) => Some((i, None)),
                (None, false) => None,
            }
        })
        .collect()
}

#[test]
fn left_join_on_keeps_every_left_row() {
    for analyzed in [false, true] {
        let db = loaded(analyzed);
        let got = pairs(&db, "SELECT p.id, q.id FROM a p LEFT JOIN b q ON p.x = q.y");
        assert_eq!(got.len(), N_A as usize, "analyzed={analyzed}");
        assert_eq!(got, expected(true, |_| true, |_| true), "analyzed={analyzed}");
    }
}

#[test]
fn left_join_on_pushes_joined_side_conjuncts_below_the_join() {
    let db = loaded(true);
    let got = pairs(&db, "SELECT p.id, q.id FROM a p LEFT JOIN b q ON p.x = q.y AND q.w < 3");
    assert_eq!(got, expected(true, |_| true, |j| j % 7 < 3));
    // A conjunct reading only the bound side cannot run below a LEFT join
    // and must not run above it: the rewrite refuses it.
    let err = db
        .query("SELECT p.id, q.id FROM a p LEFT JOIN b q ON p.x = q.y AND p.z < 5")
        .unwrap_err();
    assert!(matches!(&err, DbError::Mapping(m) if m.contains("LEFT JOIN q ON")), "{err}");
}

#[test]
fn inner_join_on_keeps_residual_conjuncts_above_the_keyed_join() {
    let db = loaded(true);
    let got = pairs(&db, "SELECT p.id, q.id FROM a p JOIN b q ON p.x = q.y AND p.z < 5");
    assert_eq!(got, expected(false, |i| i % 10 < 5, |_| true));
    let got = pairs(&db, "SELECT p.id, q.id FROM a p JOIN b q ON q.y = p.x");
    assert_eq!(got, expected(false, |_| true, |_| true));
}

#[test]
fn on_joins_explain_as_keyed_hash_joins() {
    let db = loaded(true);
    for sql in [
        "SELECT p.id, q.id FROM a p JOIN b q ON p.x = q.y",
        "SELECT p.id, q.id FROM a p LEFT JOIN b q ON p.x = q.y",
        "SELECT p.id, q.id FROM a p JOIN b q ON p.x = q.y AND p.z < 5",
    ] {
        let text = db.explain(sql).unwrap();
        assert!(text.contains("Join"), "{sql}\n{text}");
        assert!(!text.contains("on [] = []"), "{sql}\n{text}");
    }
}
