//! The process-wide model store: shared, digest-verified, read-only
//! weight arenas behind multi-tenant member sharing.
//!
//! A [`StoredModel`] is one decoded blob — a single 64-byte-aligned
//! [`WeightArena`](pgmr_tensor::WeightArena) holding every parameter
//! tensor, verified against its FNV-1a digest exactly once at load time.
//! Any number of tenants (ensemble members, serve worker replicas)
//! [`attach`](StoredModel::attach) to it: attaching swaps the network's
//! owned parameter tensors for borrowed [`ArenaView`](pgmr_tensor::ArenaView)s,
//! so an additional tenant costs per-tenant state buffers (batch-norm
//! running statistics) and bookkeeping — never another weight copy and
//! never another digest verification.
//!
//! The store parses nothing itself: [`StoredModel::from_blob`] is
//! [`decode_params_arena`], the codec's one tensor-record parser, and
//! [`StoredModel::attach`] runs the same inventory check as
//! [`decode_params`](crate::serialize::decode_params). Anything derived
//! once per blob belongs in that decode, and every tenant shares it.
//!
//! The [`model_store`] singleton keys models by their cache path, which
//! the `suite` blob cache feeds directly; tests that redirect the cache
//! directory get distinct keys for free, and [`ModelStore::clear`]
//! restores a cold store.
//!
//! Observability: `store.resident_bytes`, `store.blobs`, and
//! `store.bytes_per_tenant` gauges track the arena population;
//! `store.load_ns` times cold blob decodes; the digest-once rule is
//! observable through [`crate::serialize::DIGEST_VERIFY_COUNTER`].

use crate::network::Network;
use crate::serialize::{decode_params_arena, ArenaParams, DecodeParamsError};
use crate::ParamSlot;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One decoded model blob: a shared weight arena plus the per-tenant
/// template state (buffers) needed to attach a network to it.
#[derive(Debug)]
pub struct StoredModel {
    params: ArenaParams,
}

impl StoredModel {
    /// Decodes a blob into a shared arena, verifying its digest exactly
    /// once. The decode is timed into the `store.load_ns` histogram (the
    /// cold-start load cost the bench reports).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeParamsError`] when the blob is malformed or
    /// corrupt.
    pub fn from_blob(blob: &[u8]) -> Result<Self, DecodeParamsError> {
        let params =
            pgmr_obs::global().timer("store.load_ns").time(|| decode_params_arena(blob))?;
        Ok(StoredModel { params })
    }

    /// Architecture the stored blob was written for.
    pub fn arch_id(&self) -> &str {
        &self.params.arch_id
    }

    /// Resident bytes of the shared arena allocation.
    pub fn resident_bytes(&self) -> usize {
        self.params.resident_bytes()
    }

    /// Attaches `net` as a tenant: every parameter slot becomes a borrowed
    /// view into the shared arena ([`ParamSlot::share`]) and the state
    /// buffers are copied (they are mutable per-tenant inference state).
    /// No weight bytes are copied and the digest is not re-verified.
    ///
    /// The inventory check is the one [`decode_params`](crate::serialize::decode_params)
    /// runs; on error the network is untouched.
    ///
    /// # Errors
    ///
    /// [`DecodeParamsError::ArchMismatch`] when `net` was built for a
    /// different architecture, [`DecodeParamsError::ShapeMismatch`] when
    /// the slot or buffer inventory disagrees.
    pub fn attach(&self, net: &mut Network) -> Result<(), DecodeParamsError> {
        self.params.install(net, |net, views| {
            let mut views = views.iter().cloned();
            net.visit_slots(&mut |slot| {
                *slot = ParamSlot::share(views.next().expect("inventory checked"));
            });
        })
    }
}

/// Bookkeeping for one stored blob.
struct Entry {
    model: Arc<StoredModel>,
    tenants: u64,
}

/// A keyed collection of [`StoredModel`]s with tenant accounting. The
/// canonical instance is [`model_store`]; tests may build private stores.
#[derive(Default)]
pub struct ModelStore {
    entries: Mutex<HashMap<String, Entry>>,
}

impl ModelStore {
    /// An empty store.
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// The stored model under `key`, if any, counting the caller as a new
    /// tenant of it.
    pub fn get(&self, key: &str) -> Option<Arc<StoredModel>> {
        let mut entries = self.entries.lock().expect("model store mutex poisoned");
        let found = entries.get_mut(key).map(|e| {
            e.tenants += 1;
            Arc::clone(&e.model)
        });
        if found.is_some() {
            Self::publish(&entries);
        }
        found
    }

    /// Decodes `blob` (digest verified once, load timed) and stores it
    /// under `key`, counting the caller as its first tenant. Replaces any
    /// existing entry — the self-heal path after a corrupt blob was
    /// re-trained and re-written.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeParamsError`] when the blob is malformed or
    /// corrupt; the store is unchanged.
    pub fn insert(&self, key: &str, blob: &[u8]) -> Result<Arc<StoredModel>, DecodeParamsError> {
        let model = Arc::new(StoredModel::from_blob(blob)?);
        let mut entries = self.entries.lock().expect("model store mutex poisoned");
        entries.insert(key.to_string(), Entry { model: Arc::clone(&model), tenants: 1 });
        Self::publish(&entries);
        Ok(model)
    }

    /// Number of resident blobs.
    pub fn blobs(&self) -> usize {
        self.entries.lock().expect("model store mutex poisoned").len()
    }

    /// Total resident arena bytes across all blobs.
    pub fn resident_bytes(&self) -> usize {
        let entries = self.entries.lock().expect("model store mutex poisoned");
        entries.values().map(|e| e.model.resident_bytes()).sum()
    }

    /// Total tenants attached across all blobs.
    pub fn tenants(&self) -> u64 {
        let entries = self.entries.lock().expect("model store mutex poisoned");
        entries.values().map(|e| e.tenants).sum()
    }

    /// Drops every stored blob (tests and cache-reset paths). Tenants that
    /// already attached keep their arenas alive through their own `Arc`s.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("model store mutex poisoned");
        entries.clear();
        Self::publish(&entries);
    }

    /// Refreshes the store gauges from the entry map (called with the lock
    /// held — gauge writes are lock-free atomics).
    fn publish(entries: &HashMap<String, Entry>) {
        let resident: usize = entries.values().map(|e| e.model.resident_bytes()).sum();
        let tenants: u64 = entries.values().map(|e| e.tenants).sum();
        let obs = pgmr_obs::global();
        obs.gauge("store.resident_bytes").set(resident as f64);
        obs.gauge("store.blobs").set(entries.len() as f64);
        obs.gauge("store.bytes_per_tenant").set(if tenants == 0 {
            0.0
        } else {
            resident as f64 / tenants as f64
        });
    }
}

/// The process-wide model store.
pub fn model_store() -> &'static ModelStore {
    static STORE: OnceLock<ModelStore> = OnceLock::new();
    STORE.get_or_init(ModelStore::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::encode_params;
    use crate::zoo::{build, ArchSpec};
    use pgmr_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn attach_is_bit_identical_to_owned() {
        let spec = ArchSpec::lenet5(1, 8, 8, 4);
        let mut net = build(&spec, 11);
        let blob = encode_params(&mut net);
        let stored = StoredModel::from_blob(&blob).unwrap();
        assert_eq!(stored.arch_id(), net.arch_id());
        assert!(stored.resident_bytes() > 0);

        let mut tenant = build(&spec, 99);
        stored.attach(&mut tenant).unwrap();
        let mut shared = 0;
        tenant.visit_slots(&mut |s| shared += usize::from(s.value.is_shared()));
        assert!(shared > 0, "attached tenant must borrow from the arena");

        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![3, 1, 8, 8], -1.0, 1.0, &mut rng);
        assert_eq!(net.predict_proba(&x), tenant.predict_proba(&x));
    }

    #[test]
    fn attach_rejects_wrong_architecture() {
        let mut a = build(&ArchSpec::convnet(1, 8, 8, 4), 0);
        let blob = encode_params(&mut a);
        let stored = StoredModel::from_blob(&blob).unwrap();
        let mut b = build(&ArchSpec::lenet5(1, 16, 16, 10), 0);
        match stored.attach(&mut b) {
            Err(DecodeParamsError::ArchMismatch { .. }) => {}
            other => panic!("expected arch mismatch, got {other:?}"),
        }
    }

    #[test]
    fn decode_and_attach_reject_same_arch_id_with_other_layers() {
        use crate::layer::Layer;
        use crate::layers::{Dense, Flatten};
        use crate::serialize::decode_params;
        // Impostors that claim lenet5's arch id but hold dense stacks: only
        // the inventory can tell them apart. Two dense layers give fewer
        // slots than lenet5; four give as many slots, of other shapes.
        let spec = ArchSpec::lenet5(1, 16, 16, 10);
        let mut rng = StdRng::seed_from_u64(4);
        for widths in [&[16 * 16, 10][..], &[16 * 16, 32, 32, 32, 10]] {
            let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(Flatten::new())];
            for w in widths.windows(2) {
                layers.push(Box::new(Dense::new(w[0], w[1], &mut rng)));
            }
            let mut impostor = Network::new(layers, spec.arch_id(), 10);
            let mut real = build(&spec, 0);
            for (blob, target) in [
                (encode_params(&mut impostor), &mut real),
                (encode_params(&mut build(&spec, 1)), &mut impostor),
            ] {
                let before = target.state_dict();
                assert_eq!(decode_params(target, &blob), Err(DecodeParamsError::ShapeMismatch));
                assert_eq!(target.state_dict(), before);
                let stored = StoredModel::from_blob(&blob).unwrap();
                assert_eq!(stored.attach(target), Err(DecodeParamsError::ShapeMismatch));
                assert_eq!(target.state_dict(), before);
            }
        }
    }

    #[test]
    fn store_shares_one_arena_across_tenants() {
        let store = ModelStore::new();
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 5);
        let blob = encode_params(&mut net);
        assert!(store.get("k").is_none());
        let first = store.insert("k", &blob).unwrap();
        let second = store.get("k").expect("hit after insert");
        assert!(Arc::ptr_eq(&first, &second), "tenants must share one arena");
        assert_eq!(store.blobs(), 1);
        assert_eq!(store.tenants(), 2);
        assert_eq!(store.resident_bytes(), first.resident_bytes());
        store.clear();
        assert_eq!(store.blobs(), 0);
        assert!(store.get("k").is_none());
    }
}
