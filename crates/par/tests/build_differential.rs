//! The base-index build against the algorithm it replaced, and the widen
//! path against a rebuild.
//!
//! The reference build below is the clustered build as it was first
//! written: pack every row version's key, sort the rids stably by it
//! ([`stable_key_order`]'s contract, checked on the way), then push the
//! rows one by one in that order into the tree and the payload. The build under test must give the same tree,
//! the same payload rows, lane width and footprint — under the serial hook
//! and on 1, 2 and 4 threads.

use qppt_par::ThreadTasks;
use qppt_storage::{
    stable_key_order, BaseIndex, BuildTasks, ColumnType, Database, IndexDef, IndexedTable,
    MvccTable, PayloadBuf, Schema, SerialTasks, TableBuilder, TreeIndex, Value,
};

/// Everything of an index a reader can observe.
#[derive(Debug, PartialEq)]
struct Dump {
    kind: &'static str,
    scan: Vec<(u64, u32)>,
    rows: Vec<Vec<u64>>,
    lane_bytes: usize,
    memory_bytes: usize,
}

fn dump(it: &IndexedTable) -> Dump {
    let mut scan = Vec::new();
    it.index.for_each(|k, id| scan.push((k, id)));
    Dump {
        kind: it.index.kind_name(),
        scan,
        rows: (0..it.payload.len() as u32)
            .map(|id| it.payload.row(id).to_vec())
            .collect(),
        lane_bytes: it.payload.lane_bytes(),
        memory_bytes: it.memory_bytes(),
    }
}

/// The reference build, with the key format of `built` (the packer is not
/// what is under test).
fn reference(table: &MvccTable, built: &BaseIndex, carried: &[usize], prefer_kiss: bool) -> Dump {
    let t = table.table();
    let packer = built.packer();
    let keys: Vec<u64> = (0..table.version_count() as u32)
        .map(|rid| {
            let src = t.row(rid);
            packer.pack_fitting(built.key_cols.iter().map(|&c| src[c]))
        })
        .collect();
    // The indirect stable sort, which `stable_key_order` must equal.
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_by_key(|&rid| keys[rid as usize]);
    assert_eq!(stable_key_order(&keys), order);
    let mut data = IndexedTable {
        index: TreeIndex::for_domain(packer.max_key(), prefer_kiss),
        payload: PayloadBuf::with_capacity(1 + carried.len(), order.len()),
    };
    for &rid in &order {
        let src = t.row(rid);
        data.insert_row(
            keys[rid as usize],
            std::iter::once(rid as u64).chain(carried.iter().map(|&c| src[c])),
        );
    }
    dump(&data)
}

fn hooks() -> Vec<(String, Box<dyn BuildTasks>)> {
    let mut hooks: Vec<(String, Box<dyn BuildTasks>)> =
        vec![("serial".into(), Box::new(SerialTasks))];
    for threads in [1, 2, 4] {
        hooks.push((
            format!("{threads} threads"),
            Box::new(ThreadTasks::new(threads)),
        ));
    }
    hooks
}

/// A database over one table `t` of int columns `c0..`, from `rows`.
fn db_of(rows: &[Vec<u64>], cols: usize) -> Database {
    let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
    let schema: Vec<(&str, ColumnType)> = names
        .iter()
        .map(|n| (n.as_str(), ColumnType::Int))
        .collect();
    let mut b = TableBuilder::new("t", Schema::of(&schema));
    for row in rows {
        b.push_row(row.iter().map(|&v| Value::Int(v as i64)).collect())
            .unwrap();
    }
    let mut db = Database::new();
    db.add_table(b.finish());
    db
}

struct Case {
    name: &'static str,
    rows: Vec<Vec<u64>>,
    key_cols: Vec<usize>,
    carried: Vec<usize>,
}

fn cases() -> Vec<Case> {
    let mut rng = qppt_mem::Xoshiro256StarStar::new(0x6275_696c);
    let mut random = |n: usize, key_max: u64| -> Vec<Vec<u64>> {
        (0..n)
            .map(|_| {
                vec![
                    rng.below(key_max + 1),
                    rng.below(1 << 20),
                    rng.below(1_000),
                    rng.below(1 << 31),
                ]
            })
            .collect()
    };
    let max = u32::MAX as u64;
    let random_rows = random(40_000, 5_000);
    let mut big_carry = random(20_000, 300);
    big_carry[12_345][3] = 1 << 40;
    let mut ends = random(20_000, 1);
    for row in &mut ends {
        row[0] *= max;
    }
    let mut same = random(30_000, 0);
    same[7][0] = 0;
    vec![
        Case {
            name: "empty",
            rows: Vec::new(),
            key_cols: vec![0],
            carried: vec![1, 2],
        },
        Case {
            name: "one row",
            rows: vec![vec![9, 8, 7, 6]],
            key_cols: vec![0],
            carried: vec![3],
        },
        Case {
            name: "random",
            rows: random_rows.clone(),
            key_cols: vec![0],
            carried: vec![2, 1, 3],
        },
        Case {
            name: "all keys equal",
            rows: same,
            key_cols: vec![0],
            carried: vec![1],
        },
        Case {
            name: "keys 0 and u32::MAX",
            rows: ends,
            key_cols: vec![0],
            carried: vec![2],
        },
        Case {
            name: "a two-column key past 32 bits",
            rows: random_rows.clone(),
            key_cols: vec![1, 3],
            carried: vec![0],
        },
        Case {
            name: "a carried value past 32 bits",
            rows: big_carry,
            key_cols: vec![0],
            carried: vec![1, 3],
        },
        Case {
            name: "no carried column",
            rows: random_rows,
            key_cols: vec![2, 0],
            carried: Vec::new(),
        },
    ]
}

#[test]
fn build_matches_the_reference_under_every_hook() {
    for case in cases() {
        let db = db_of(&case.rows, 4);
        let table = db.table_at(0);
        for prefer_kiss in [true, false] {
            for (hook, tasks) in hooks() {
                let built = BaseIndex::build(
                    0,
                    table,
                    case.key_cols.clone(),
                    case.carried.clone(),
                    prefer_kiss,
                    tasks.as_ref(),
                )
                .unwrap();
                assert_eq!(
                    dump(&built.data),
                    reference(table, &built, &case.carried, prefer_kiss),
                    "{}, {hook}, prefer_kiss {prefer_kiss}",
                    case.name
                );
            }
        }
    }
    // The cases reach both trees' widths and both lane widths.
    let db = db_of(&cases()[5].rows, 4);
    let wide = BaseIndex::build(0, db.table_at(0), vec![1, 3], vec![0], true, &SerialTasks);
    assert_eq!(wide.unwrap().data.index.kind_name(), "PrefixTree<64>");
    let db = db_of(&cases()[6].rows, 4);
    let wide = BaseIndex::build(0, db.table_at(0), vec![0], vec![1, 3], true, &SerialTasks);
    assert_eq!(wide.unwrap().data.payload.lane_bytes(), 8);
}

fn def(carried: &[&str]) -> IndexDef {
    IndexDef::new("t", "c0", carried)
}

#[test]
fn widening_an_unmodified_index_is_the_rebuild() {
    let rows = cases().swap_remove(2).rows;
    for (hook, tasks) in hooks() {
        let mut widened = db_of(&rows, 4);
        widened
            .create_index_with(&def(&["c2"]), tasks.as_ref())
            .unwrap();
        let v = widened.table_version("t").unwrap();
        // c2 again, then two new columns: the union is c2, c3, c1.
        widened
            .create_index_with(&def(&["c3", "c2", "c1"]), tasks.as_ref())
            .unwrap();
        assert!(widened.table_version("t").unwrap() > v, "{hook}");
        let mut scratch = db_of(&rows, 4);
        scratch.create_index(&def(&["c2", "c3", "c1"])).unwrap();
        let (a, b) = (&widened.indexes()[0], &scratch.indexes()[0]);
        assert_eq!(a.carried, b.carried, "{hook}");
        assert_eq!(a.carried_names, b.carried_names, "{hook}");
        assert_eq!(dump(&a.data), dump(&b.data), "{hook}");
        assert_eq!(a.payload_pos_by_name("c1"), Some(3));
    }
    // Widening into a column past 32 bits moves the payload to u64 lanes,
    // as the rebuild does.
    let rows = cases().swap_remove(6).rows;
    let mut widened = db_of(&rows, 4);
    widened.create_index(&def(&["c1"])).unwrap();
    assert_eq!(widened.indexes()[0].data.payload.lane_bytes(), 4);
    widened.create_index(&def(&["c3"])).unwrap();
    let mut scratch = db_of(&rows, 4);
    scratch.create_index(&def(&["c1", "c3"])).unwrap();
    assert_eq!(
        dump(&widened.indexes()[0].data),
        dump(&scratch.indexes()[0].data)
    );
    assert_eq!(widened.indexes()[0].data.payload.lane_bytes(), 8);
}

#[test]
fn widening_after_an_append_or_a_tree_change_rebuilds() {
    let rows = cases().swap_remove(2).rows;
    for (hook, tasks) in hooks() {
        // One appended row: the tree holds it at the unclustered tail, so
        // the index is rebuilt with the union, clustered again.
        let mut db = db_of(&rows, 4);
        db.create_index_with(&def(&["c2"]), tasks.as_ref()).unwrap();
        db.insert_row("t", &[3, 4, 5, 6].map(Value::Int)).unwrap();
        db.create_index_with(&def(&["c1"]), tasks.as_ref()).unwrap();
        let idx = &db.indexes()[0];
        assert_eq!(idx.carried, vec![2, 1], "{hook}");
        let table = db.table_at(0);
        assert_eq!(idx.data.tuple_count(), rows.len() + 1);
        assert_eq!(
            dump(&idx.data),
            reference(table, idx, &[2, 1], true),
            "{hook}: rebuilt after an append"
        );
        // A different tree choice: the widening rebuilds into it.
        let mut db = db_of(&rows, 4);
        db.create_index_with(&def(&["c2"]), tasks.as_ref()).unwrap();
        db.prefer_kiss = false;
        db.create_index_with(&def(&["c1"]), tasks.as_ref()).unwrap();
        let idx = &db.indexes()[0];
        assert_eq!(idx.data.index.kind_name(), "PrefixTree<32>", "{hook}");
        assert_eq!(
            dump(&idx.data),
            reference(db.table_at(0), idx, &[2, 1], false),
            "{hook}: rebuilt into the other tree"
        );
    }
}
