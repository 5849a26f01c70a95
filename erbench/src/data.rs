//! Seeded inputs for the durable workloads: the Figure-4 experiment schema
//! (the same DDL and shape as `erbium_datagen::experiment`) loaded through
//! the public bulk path, with a client-side model of what was written.

use crate::util::{Fingerprint, Rng};
use erbiumdb::core::{BulkEntity, Database, DurabilityOptions};
use erbiumdb::storage::Value;
use std::collections::BTreeMap;
use std::path::Path;

pub const DDL: &str = "
    CREATE ENTITY R (r_id int KEY, r_a text, r_b int,
        r_mv1 int MULTIVALUED, r_mv2 int MULTIVALUED,
        r_mv3 text MULTIVALUED) PARTIAL DISJOINT;
    CREATE ENTITY R1 EXTENDS R (r1_a int NULLABLE, r1_b text NULLABLE) PARTIAL DISJOINT;
    CREATE ENTITY R2 EXTENDS R (r2_a int NULLABLE, r2_b text NULLABLE) PARTIAL DISJOINT;
    CREATE ENTITY R3 EXTENDS R1 (r3_a int NULLABLE);
    CREATE ENTITY R4 EXTENDS R2 (r4_a text NULLABLE);
    CREATE ENTITY S (s_id int KEY, s_a text, s_b int);
    CREATE RELATIONSHIP s_s1 FROM S1 MANY TOTAL TO S ONE;
    CREATE RELATIONSHIP s_s2 FROM S2 MANY TOTAL TO S ONE;
    CREATE WEAK ENTITY S1 OWNED BY S VIA s_s1
        (s1_no int KEY, s1_a int NULLABLE, s1_b text NULLABLE);
    CREATE WEAK ENTITY S2 OWNED BY S VIA s_s2 (s2_no int KEY, s2_a text NULLABLE);
    CREATE RELATIONSHIP r_s FROM R MANY TO S ONE;
    CREATE RELATIONSHIP r2_s1 FROM R2 MANY TO S1 MANY;
    CREATE RELATIONSHIP r1_r3 FROM R1 ROLE src MANY TO R3 ROLE dst MANY;
";

const TYPES: [&str; 5] = ["R", "R1", "R2", "R3", "R4"];
const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

/// One generated R-hierarchy instance, as the user wrote it.
#[derive(Debug, Clone)]
pub struct REntity {
    pub id: i64,
    pub ty: usize,
    pub attrs: Vec<(&'static str, Value)>,
    pub s: i64,
}

impl REntity {
    pub fn get(&self, attr: &str) -> Value {
        self.attrs
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    }

    pub fn set(&mut self, attr: &'static str, v: Value) {
        match self.attrs.iter_mut().find(|(a, _)| *a == attr) {
            Some(slot) => slot.1 = v,
            None => self.attrs.push((attr, v)),
        }
    }

    pub fn bulk(&self) -> BulkEntity {
        BulkEntity::linked(&self.attrs, &[("r_s", vec![Value::Int(self.s)])])
    }
}

fn mv_ints(rng: &mut Rng) -> Value {
    let n = 1 + rng.below(5);
    Value::Array(
        (0..n)
            .map(|_| Value::Int(rng.below(1_000) as i64))
            .collect(),
    )
}

/// Generate R instance `id` of hierarchy type `ty`, linked to one of `n_s` S.
pub fn r_entity(rng: &mut Rng, id: i64, ty: usize, n_s: i64) -> REntity {
    let mut attrs: Vec<(&'static str, Value)> = vec![
        ("r_id", Value::Int(id)),
        (
            "r_a",
            Value::str(format!("r-{}-{id}", VOCAB[(id % 7) as usize])),
        ),
        ("r_b", Value::Int(rng.below(100) as i64)),
        ("r_mv1", mv_ints(rng)),
        ("r_mv2", mv_ints(rng)),
        ("r_mv3", {
            let n = 1 + rng.below(5);
            Value::Array(
                (0..n)
                    .map(|_| Value::str(VOCAB[rng.below(8) as usize]))
                    .collect(),
            )
        }),
    ];
    if ty == 1 || ty == 3 {
        attrs.push(("r1_a", Value::Int(rng.below(1_000) as i64)));
        attrs.push(("r1_b", Value::str(VOCAB[rng.below(8) as usize])));
    }
    if ty == 2 || ty == 4 {
        attrs.push(("r2_a", Value::Int(rng.below(1_000) as i64)));
        attrs.push(("r2_b", Value::str(VOCAB[rng.below(8) as usize])));
    }
    if ty == 3 {
        attrs.push(("r3_a", Value::Int(rng.below(1_000) as i64)));
    }
    if ty == 4 {
        attrs.push(("r4_a", Value::str(VOCAB[rng.below(8) as usize])));
    }
    REntity {
        id,
        ty,
        attrs,
        s: rng.below(n_s as u64) as i64,
    }
}

pub fn s_entity(id: i64) -> BulkEntity {
    BulkEntity::new(&[
        ("s_id", Value::Int(id)),
        (
            "s_a",
            Value::str(format!("s-{}-{id}", VOCAB[(id % 8) as usize])),
        ),
        ("s_b", Value::Int(id % 50)),
    ])
}

pub fn s1_entity(rng: &mut Rng, owner: i64, no: i64) -> BulkEntity {
    BulkEntity::new(&[
        ("s_id", Value::Int(owner)),
        ("s1_no", Value::Int(no)),
        ("s1_a", Value::Int(rng.below(10_000) as i64)),
        ("s1_b", Value::str(format!("w{owner}-{no}"))),
    ])
}

/// The loaded instance as the client knows it.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub n_s: i64,
    /// Every live R-hierarchy instance by key.
    pub r: BTreeMap<i64, REntity>,
    /// `(s1_no, s1_a)` of the weak S1 members of each S.
    pub s1: BTreeMap<i64, Vec<(i64, i64)>>,
    /// Payload bytes of everything loaded (see `util::user_bytes`).
    pub user_bytes: u64,
}

impl Model {
    pub fn ids_of(&self, types: &[usize]) -> Vec<i64> {
        self.r
            .values()
            .filter(|e| types.contains(&e.ty))
            .map(|e| e.id)
            .collect()
    }

    /// The rows the read of `family` must return for `keys`, in
    /// `crate::FAMILIES` order: E3-shaped `r_mv1` of R, E5-shaped columns
    /// of R3, the E7-shaped S ⋈ S1 weak join of the S keys, and E9b-shaped
    /// columns of the R2 subtree. A key absent from the model (or of
    /// another type) contributes no row.
    pub fn expected(&self, family: usize, keys: &[i64]) -> Fingerprint {
        let cols = |types: &[usize], attrs: &[&str]| -> Vec<Vec<Value>> {
            keys.iter()
                .filter_map(|k| self.r.get(k))
                .filter(|e| types.contains(&e.ty))
                .map(|e| attrs.iter().map(|a| e.get(a)).collect())
                .collect()
        };
        let rows = match family {
            0 => cols(&[0, 1, 2, 3, 4], &["r_mv1"]),
            1 => cols(&[3], &["r_id", "r_a", "r_b", "r1_a", "r1_b", "r3_a"]),
            2 => keys
                .iter()
                .flat_map(|s| {
                    let s_a = s_entity(*s).data.get("s_a").cloned().unwrap_or(Value::Null);
                    self.s1.get(s).into_iter().flatten().map(move |(no, a)| {
                        vec![Value::Int(*s), s_a.clone(), Value::Int(*no), Value::Int(*a)]
                    })
                })
                .collect(),
            _ => cols(&[2, 4], &["r_id", "r2_a", "r2_b"]),
        };
        Fingerprint::of_rows(&rows)
    }
}

fn bulk_bytes(batch: &[BulkEntity]) -> u64 {
    batch
        .iter()
        .flat_map(|b| b.data.values())
        .map(crate::util::user_bytes)
        .sum()
}

/// Load `n_r` R instances (types cycling by `r_id % 5`, as the paper's
/// generator does), `n_r / 5` S with two S1 members each, into `db`.
pub fn load(db: &mut Database, rng: &mut Rng, n_r: i64) -> Result<Model, String> {
    let n_s = (n_r / 5).max(1);
    let mut model = Model {
        n_s,
        ..Model::default()
    };
    let s_batch: Vec<BulkEntity> = (0..n_s).map(s_entity).collect();
    model.user_bytes += bulk_bytes(&s_batch);
    db.copy_from("S", &s_batch)
        .map_err(|e| format!("copy_from S: {e}"))?;
    let s1_batch: Vec<BulkEntity> = (0..2 * n_s)
        .map(|i| {
            let (owner, no) = (i % n_s, i / n_s);
            let b = s1_entity(rng, owner, no);
            if let Some(Value::Int(a)) = b.data.get("s1_a") {
                model.s1.entry(owner).or_default().push((no, *a));
            }
            b
        })
        .collect();
    model.user_bytes += bulk_bytes(&s1_batch);
    db.copy_from("S1", &s1_batch)
        .map_err(|e| format!("copy_from S1: {e}"))?;
    let mut by_type: [Vec<BulkEntity>; 5] = Default::default();
    for id in 0..n_r {
        let e = r_entity(rng, id, (id % 5) as usize, n_s);
        by_type[e.ty].push(e.bulk());
        model.r.insert(id, e);
    }
    for (ty, batch) in TYPES.iter().zip(&by_type) {
        model.user_bytes += bulk_bytes(batch);
        db.copy_from(ty, batch)
            .map_err(|e| format!("copy_from {ty}: {e}"))?;
    }
    Ok(model)
}

/// Create, load, ANALYZE and checkpoint the experiment schema under the
/// paper's M2 mapping in a fresh durable directory, and close it. Returns
/// the model and the row-page count of the loaded data.
pub fn build(dir: &Path, seed: u64, n_r: i64) -> Result<(Model, usize), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = Database::open_with(dir, DurabilityOptions::default())
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    db.execute(DDL).map_err(|e| format!("ddl: {e}"))?;
    db.install(erbium_bench::mapping_by_name("M2"))
        .map_err(|e| format!("install M2: {e}"))?;
    let model = load(&mut db, &mut Rng::new(seed), n_r)?;
    db.analyze();
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok((model, crate::util::row_pages(db.catalog())))
}
