//! Racing writers on the same ids: `update` and `delete` each check and
//! write under one shard lock, so a delete is never undone by an update
//! that saw the document a moment earlier, and of two racing deletes of
//! one id exactly one succeeds.

use fairdms_datastore::{Collection, DocId, Document, RawCodec};
use std::sync::{Arc, Barrier};
use std::thread;

const THREADS: usize = 4;
const ROUNDS: usize = 300;
/// Ids raced in one round: few, so every thread hits every one of them.
const IDS: usize = 4;

fn doc(v: i64) -> Document {
    Document::new()
        .with("cluster", v)
        .with("pixels", vec![v as f32; 16])
}

#[test]
fn racing_updates_and_deletes_neither_resurrect_nor_double_delete() {
    let coll = Collection::new("race", Arc::new(RawCodec));
    let r0 = coll.revision();
    let rounds: Vec<Vec<DocId>> = (0..ROUNDS)
        .map(|r| coll.insert_many(&vec![doc(r as i64); IDS]))
        .collect();
    let inserts = (ROUNDS * IDS) as u64;
    let start = Barrier::new(THREADS);
    // Per thread: every id whose `delete` returned true, and how many of
    // its `update`s did.
    let outcomes: Vec<(Vec<DocId>, u64)> = thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (coll, start, rounds) = (&coll, &start, &rounds);
                s.spawn(move || {
                    let (mut deleted, mut updated) = (Vec::new(), 0u64);
                    for ids in rounds {
                        start.wait();
                        for i in 0..IDS {
                            let id = ids[(i + t) % IDS];
                            updated += u64::from(coll.update(id, &doc(-(t as i64))));
                            if coll.delete(id) {
                                deleted.push(id);
                            }
                            updated += u64::from(coll.update(id, &doc(t as i64)));
                        }
                    }
                    (deleted, updated)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let updated: u64 = outcomes.iter().map(|(_, n)| n).sum();
    let mut deleted: Vec<DocId> = outcomes.into_iter().flat_map(|(ids, _)| ids).collect();
    deleted.sort_unstable();
    let want: Vec<DocId> = rounds.into_iter().flatten().collect();
    assert_eq!(deleted, want, "exactly one delete per id returns true");
    assert!(coll.ids().is_empty(), "resurrected: {:?}", coll.ids());
    assert!(want.iter().all(|&id| coll.get(id).is_none()));
    assert_eq!(
        coll.revision() - r0,
        inserts + updated + want.len() as u64,
        "one revision per insert, successful update and successful delete"
    );
}
