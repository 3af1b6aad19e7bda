//! The persisted `FedChIndex` document: its bytes are pinned by FNV-1a
//! hashes, so any change to the in-memory layout that drifts the JSON
//! (key order, row encoding, fold results) fails here, and malformed
//! documents must come back as `JsonError::Schema`, never as a panic or a
//! silently accepted index.

use fedroad::core::jsonio::{JsonError, Value};
use fedroad::{
    gen_silo_weights, grid_city, CongestionLevel, FedChIndex, Federation, FederationConfig,
    GridCityParams, SacBackend, SacComparator, WeightChange,
};
use fedroad_graph::ch::contraction_order;
use fedroad_graph::ArcId;

const SILOS: usize = 3;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn setup() -> (Federation, FedChIndex) {
    let g = grid_city(&GridCityParams::small(), 61);
    let w = gen_silo_weights(&g, CongestionLevel::Moderate, SILOS, 61);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 61,
        },
    );
    let order = contraction_order(fed.graph(), 0);
    let core = (order.len() / 10).max(1);
    let index = {
        let (graph, silos, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        FedChIndex::build(graph, silos, &order, core, &mut cmp)
    };
    (fed, index)
}

/// A fixed mixed-silo batch: every 29th arc, round-robin over the silos,
/// raised by a few distinct amounts.
fn fixed_batch(fed: &Federation) -> Vec<WeightChange> {
    (0..fed.graph().num_arcs())
        .step_by(29)
        .enumerate()
        .map(|(i, a)| {
            let arc = ArcId(a as u32);
            let silo = i % SILOS;
            WeightChange {
                arc,
                silo,
                weight: fed.silo(silo).weight(arc) + 13 + (i as u64 % 5) * 7,
            }
        })
        .collect()
}

fn hash(index: &FedChIndex) -> u64 {
    fnv1a64(index.to_json().expect("serializes").as_bytes())
}

#[test]
fn persisted_bytes_are_pinned() {
    let (mut fed, mut index) = setup();
    let built = hash(&index);
    let batch = fixed_batch(&fed);
    let stats = {
        let (_, _, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        index.customize(&batch, &mut cmp)
    };
    assert!(stats.changed > 0, "the batch must change the index");
    let customized = hash(&index);
    let silo_view = hash(&index.silo_view(1));
    assert_eq!(
        (built, customized, silo_view),
        (BUILT, CUSTOMIZED, SILO_VIEW),
        "the persisted FedChIndex document drifted"
    );
}

// The documents' hashes when the format was pinned. An in-memory layout
// change must reproduce them byte for byte; a deliberate format change
// updates them in the same commit.
const BUILT: u64 = 8_899_145_520_880_612_359;
const CUSTOMIZED: u64 = 770_438_872_000_522_091;
const SILO_VIEW: u64 = 13_266_566_802_751_994_907;

/// Parses a fresh document, lets `edit` corrupt it, and returns what
/// `from_json` makes of the result.
fn restore_edited(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> Result<FedChIndex, JsonError> {
    let (_, index) = setup();
    let Value::Obj(mut fields) = Value::parse(&index.to_json().expect("serializes")).unwrap()
    else {
        panic!("the document is an object");
    };
    edit(&mut fields);
    FedChIndex::from_json(&Value::Obj(fields).to_json())
}

fn field<'a>(fields: &'a mut [(String, Value)], key: &str) -> &'a mut Value {
    &mut fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .expect("key present")
        .1
}

fn arr(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn obj(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Obj(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn assert_schema_error(result: Result<FedChIndex, JsonError>, case: &str) {
    match result {
        Err(JsonError::Schema(_)) => {}
        Err(e) => panic!("{case}: expected a schema error, got {e:?}"),
        Ok(_) => panic!("{case}: a malformed document was accepted"),
    }
}

#[test]
fn unedited_document_restores() {
    assert!(restore_edited(|_| {}).is_ok());
}

#[test]
fn triangle_arc_out_of_range_is_rejected() {
    let result = restore_edited(|fields| {
        let arcs = arr(field(fields, "arcs"));
        let tris = arcs
            .iter_mut()
            .map(|a| arr(field(obj(a), "tris")))
            .find(|t| !t.is_empty())
            .expect("some arc has a triangle");
        arr(&mut tris[0])[1] = Value::Int(99_999_999);
    });
    assert_schema_error(result, "triangle uv out of range");
}

#[test]
fn core_size_above_vertex_count_is_rejected() {
    let result = restore_edited(|fields| {
        let n = arr(field(fields, "order")).len();
        *field(fields, "core_size") = Value::Int(n as i128 + 1);
    });
    assert_schema_error(result, "core_size > n");
}

#[test]
fn short_weight_row_is_rejected() {
    let result = restore_edited(|fields| {
        let rows = arr(field(fields, "weights"));
        arr(&mut rows[0]).truncate(1);
    });
    assert_schema_error(result, "weights row with 1 of 3 entries");
}

#[test]
fn middle_vertex_out_of_range_is_rejected() {
    let result = restore_edited(|fields| {
        let n = arr(field(fields, "order")).len();
        arr(field(fields, "middle"))[0] = Value::Int(n as i128);
    });
    assert_schema_error(result, "middle vertex >= n");
}

#[test]
fn order_that_is_not_a_permutation_is_rejected() {
    let result = restore_edited(|fields| {
        let order = arr(field(fields, "order"));
        order[1] = order[0].clone();
    });
    assert_schema_error(result, "order with a repeated vertex");
}
