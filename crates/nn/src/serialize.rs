//! Versioned binary parameter codec, and the digest-verified frame it
//! shares with the other on-disk artifacts.
//!
//! Trained ensembles are cached to disk by the experiment harnesses so
//! re-running a figure does not retrain every network. Every cached
//! artifact — weight blobs here, vulnerability profiles in `pgmr-faults` —
//! sits in one little-endian frame, written by [`write_frame`] and read by
//! [`read_frame`]:
//!
//! ```text
//! magic  [u8; 4]                         (b"PGMR" for weight blobs)
//! version u16                            (3 for weight blobs)
//! body_len u32                           (bytes after the checksum field)
//! checksum u64                           (FNV-1a over the body)
//! body:
//!   arch_id len u16 + utf-8 bytes
//!   payload                              (artifact-specific)
//! ```
//!
//! A weight blob's payload is:
//!
//! ```text
//! tensor count u32
//! per tensor: rank u8, dims u32×rank, data f32×len
//! buffer count u32
//! per buffer: len u32, data f32×len      (batch-norm running statistics)
//! ```
//!
//! The checksum makes storage corruption loud: a single flipped bit
//! anywhere in the body (e.g. in a cached weight) fails verification
//! before any parameter is parsed, instead of silently loading a
//! corrupted network.
//!
//! There is one decoder. [`decode_params_arena`] verifies the frame and
//! parses the tensor records in a single walk into a shared
//! [`WeightArena`]; it is the one place a weight blob becomes parameters,
//! so anything derived once per blob (a prepacked inference layout, the
//! reference checksums a weight scrubber verifies against) belongs there.
//! Installing the result into a [`Network`] goes through one inventory
//! check (architecture, slot shapes, buffer lengths) shared by
//! [`decode_params`] (owned copies) and
//! [`StoredModel::attach`](crate::store::StoredModel::attach) (shared
//! views).

use crate::network::Network;
use bytes::BufMut;
use pgmr_tensor::{align_offset, ArenaView, Shape, Tensor, WeightArena};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"PGMR";
const VERSION: u16 = 3;
/// Fixed frame header size: magic (4) + version (2) + body_len (4) +
/// checksum (8).
const HEADER_LEN: usize = 18;

/// Obs counter incremented on every successful FNV-1a verification of a
/// weight blob — the observable behind the store's digest-once-per-blob
/// invariant (the `model_store` bench divides it by tenant count). Other
/// framed artifacts do not count here.
pub const DIGEST_VERIFY_COUNTER: &str = "store.digest_verify_total";

/// FNV-1a 64-bit hash. Not cryptographic, but every single-byte change —
/// in particular any single bit flip — provably changes the digest: each
/// step is a bijection of the running state, so for a fixed suffix the
/// final value is injective in every input byte.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Error reading a digest-verified frame (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The blob does not start with the expected magic bytes.
    BadMagic,
    /// The blob's format version is unsupported.
    BadVersion(u16),
    /// The blob ended before all declared data was read.
    Truncated,
    /// The body digest does not match — storage corruption.
    ChecksumMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "missing magic bytes"),
            FrameError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            FrameError::Truncated => write!(f, "blob truncated"),
            FrameError::ChecksumMismatch => write!(f, "checksum mismatch (storage corruption)"),
        }
    }
}

impl Error for FrameError {}

/// Splits the next `n` bytes off `buf`, or reports truncation.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], FrameError> {
    if buf.len() < n {
        return Err(FrameError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// The next `N` bytes of `buf`, ready for `from_le_bytes`.
fn take_le<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FrameError> {
    Ok(take(buf, N)?.try_into().expect("take returns N bytes"))
}

fn le_f32(b: &[u8]) -> f32 {
    f32::from_le_bytes(b.try_into().expect("4 bytes"))
}

/// Writes one frame: the header, the `arch_id` prefix, then the payload
/// `write_payload` appends. `payload_len` is the exact number of bytes it
/// appends, so the frame is one pre-sized allocation.
pub fn write_frame(
    magic: &[u8; 4],
    version: u16,
    arch_id: &str,
    payload_len: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let body_len = 2 + arch_id.len() + payload_len;
    let mut buf = Vec::with_capacity(HEADER_LEN + body_len);
    buf.put_slice(magic);
    buf.put_u16_le(version);
    buf.put_u32_le(body_len as u32);
    buf.put_u64_le(0); // checksum, patched below
    buf.put_u16_le(arch_id.len() as u16);
    buf.put_slice(arch_id.as_bytes());
    write_payload(&mut buf);
    debug_assert_eq!(buf.len(), HEADER_LEN + body_len, "payload_len disagreed with the payload");
    let checksum = fnv1a(&buf[HEADER_LEN..]);
    buf[10..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// Checks a frame's magic and version, verifies the FNV-1a body digest
/// before anything in the body is parsed, and returns `(arch_id,
/// payload)`, the payload bounded by the declared body length.
///
/// # Errors
///
/// Returns a [`FrameError`] when the header is wrong, the blob is short,
/// or the digest does not match.
pub fn read_frame<'a>(
    blob: &'a [u8],
    magic: &[u8; 4],
    version: u16,
) -> Result<(String, &'a [u8]), FrameError> {
    let mut buf = blob;
    if take(&mut buf, 4).map_err(|_| FrameError::BadMagic)? != magic {
        return Err(FrameError::BadMagic);
    }
    let found = u16::from_le_bytes(take_le(&mut buf)?);
    if found != version {
        return Err(FrameError::BadVersion(found));
    }
    let body_len = u32::from_le_bytes(take_le(&mut buf)?) as usize;
    let checksum = u64::from_le_bytes(take_le(&mut buf)?);
    let mut body = take(&mut buf, body_len)?;
    if fnv1a(body) != checksum {
        return Err(FrameError::ChecksumMismatch);
    }
    let arch_len = u16::from_le_bytes(take_le(&mut body)?) as usize;
    let arch_id = String::from_utf8_lossy(take(&mut body, arch_len)?).into_owned();
    Ok((arch_id, body))
}

/// Error decoding a parameter blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeParamsError {
    /// The blob does not start with the expected magic bytes.
    BadMagic,
    /// The blob's format version is unsupported.
    BadVersion(u16),
    /// The blob was written for a different architecture.
    ArchMismatch {
        /// Architecture recorded in the blob.
        expected: String,
        /// Architecture of the network being loaded into.
        found: String,
    },
    /// The blob ended before all declared data was read.
    Truncated,
    /// The body checksum does not match — the blob was corrupted in
    /// storage (e.g. a flipped bit in a cached weight).
    ChecksumMismatch,
    /// Tensor shapes in the blob disagree with the target network.
    ShapeMismatch,
}

impl From<FrameError> for DecodeParamsError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadMagic => DecodeParamsError::BadMagic,
            FrameError::BadVersion(v) => DecodeParamsError::BadVersion(v),
            FrameError::Truncated => DecodeParamsError::Truncated,
            FrameError::ChecksumMismatch => DecodeParamsError::ChecksumMismatch,
        }
    }
}

impl fmt::Display for DecodeParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeParamsError::BadMagic => write!(f, "missing PGMR magic bytes"),
            DecodeParamsError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeParamsError::ArchMismatch { expected, found } => {
                write!(f, "blob is for architecture {expected}, network is {found}")
            }
            DecodeParamsError::Truncated => write!(f, "blob truncated"),
            DecodeParamsError::ChecksumMismatch => {
                write!(f, "blob checksum mismatch (storage corruption)")
            }
            DecodeParamsError::ShapeMismatch => write!(f, "tensor shape mismatch"),
        }
    }
}

impl Error for DecodeParamsError {}

/// Serializes a network's parameters and state buffers (not its
/// architecture) into a blob. Buffers — batch-norm running statistics —
/// must round-trip too: inference depends on them even though they are not
/// trainable.
pub fn encode_params(net: &mut Network) -> Vec<u8> {
    // Census pass: exact payload size from the layer parameter inventory,
    // so the blob is written in one pre-reserved allocation — no
    // intermediate tensor clones or `Vec<Vec<f32>>` staging.
    let arch = net.arch_id().to_string();
    let mut tensor_count = 0u32;
    let mut buffer_count = 0u32;
    let mut payload_len = 4 + 4; // tensor count + buffer count
    net.visit_slots(&mut |slot| {
        tensor_count += 1;
        payload_len += 1 + 4 * slot.value.shape().rank() + 4 * slot.value.len();
    });
    net.visit_buffers(&mut |b| {
        buffer_count += 1;
        payload_len += 4 + 4 * b.len();
    });
    write_frame(MAGIC, VERSION, &arch, payload_len, |buf| {
        buf.put_u32_le(tensor_count);
        net.visit_slots(&mut |slot| {
            let dims = slot.value.shape().dims();
            buf.put_u8(dims.len() as u8);
            for &d in dims {
                buf.put_u32_le(d as u32);
            }
            for &v in slot.value.data() {
                buf.put_f32_le(v);
            }
        });
        buf.put_u32_le(buffer_count);
        net.visit_buffers(&mut |b| {
            buf.put_u32_le(b.len() as u32);
            for &v in b.iter() {
                buf.put_f32_le(v);
            }
        });
    })
}

/// A blob decoded straight into a shared read-only [`WeightArena`]: one
/// 64-byte-aligned allocation holding every parameter tensor, plus the
/// owned per-tenant state buffers (batch-norm running statistics, which
/// each tenant copies — they are mutable inference state).
///
/// The digest is verified once, when the blob is decoded; any number of
/// tenants then attach via [`crate::store::StoredModel`] without
/// re-reading or re-verifying the blob.
#[derive(Debug, Clone)]
pub struct ArenaParams {
    /// Architecture the blob was written for.
    pub arch_id: String,
    /// One shaped view per parameter tensor, in `visit_slots` order.
    pub views: Vec<ArenaView>,
    /// Non-trainable state buffers, in `visit_buffers` order.
    pub buffers: Vec<Vec<f32>>,
}

impl ArenaParams {
    /// Resident bytes of the shared arena allocation.
    pub fn resident_bytes(&self) -> usize {
        self.views.first().map(|v| v.arena().resident_bytes()).unwrap_or(0)
    }

    /// Installs these parameters into `net`: the one inventory check
    /// (same architecture, same slot shapes and buffer lengths in visit
    /// order), then `load_slots` with the views in slot order, then a copy
    /// of every state buffer. On error the network is untouched.
    pub(crate) fn install(
        &self,
        net: &mut Network,
        load_slots: impl FnOnce(&mut Network, &[ArenaView]),
    ) -> Result<(), DecodeParamsError> {
        if net.arch_id() != self.arch_id {
            return Err(DecodeParamsError::ArchMismatch {
                expected: self.arch_id.clone(),
                found: net.arch_id().to_string(),
            });
        }
        let mut same = true;
        let mut views = self.views.iter();
        net.visit_slots(&mut |slot| {
            same &= views.next().is_some_and(|v| v.shape() == slot.value.shape());
        });
        let mut buffers = self.buffers.iter();
        net.visit_buffers(&mut |b| same &= buffers.next().is_some_and(|s| s.len() == b.len()));
        if !same || views.next().is_some() || buffers.next().is_some() {
            return Err(DecodeParamsError::ShapeMismatch);
        }
        load_slots(net, &self.views);
        let mut buffers = self.buffers.iter();
        net.visit_buffers(&mut |b| b.copy_from_slice(buffers.next().expect("inventory checked")));
        Ok(())
    }
}

/// Decodes a blob produced by [`encode_params`] into a shared arena: one
/// aligned allocation, every tensor a read-only view into it. The FNV-1a
/// digest is verified exactly once, before any parameter is parsed, and
/// the tensor records are walked once.
///
/// # Errors
///
/// Returns a [`DecodeParamsError`] when the blob is malformed or corrupt.
pub fn decode_params_arena(blob: &[u8]) -> Result<ArenaParams, DecodeParamsError> {
    let (arch_id, mut buf) = read_frame(blob, MAGIC, VERSION)?;
    pgmr_obs::global().counter(DIGEST_VERIFY_COUNTER).inc();

    // The one walk over the tensor records: each record's arena offset
    // (rounded up to a cache line), shape and payload bytes.
    let count = u32::from_le_bytes(take_le(&mut buf)?) as usize;
    let mut records = Vec::with_capacity(count.min(buf.len()));
    let mut cursor = 0usize;
    for _ in 0..count {
        let [rank] = take_le(&mut buf)?;
        let dims: Vec<usize> = take(&mut buf, 4 * rank as usize)?
            .chunks_exact(4)
            .map(|d| u32::from_le_bytes(d.try_into().expect("4 bytes")) as usize)
            .collect();
        if dims.contains(&0) {
            return Err(DecodeParamsError::ShapeMismatch);
        }
        let bytes = dims.iter().try_fold(4usize, |n, &d| n.checked_mul(d));
        let payload = take(&mut buf, bytes.ok_or(FrameError::Truncated)?)?;
        let offset = align_offset(cursor);
        cursor = offset + payload.len() / 4;
        records.push((offset, dims, payload));
    }

    // Buffers (batch-norm running statistics) stay owned: tenants mutate
    // them during calibration, so they are copied per attach.
    let buffer_count = u32::from_le_bytes(take_le(&mut buf)?) as usize;
    let mut buffers = Vec::with_capacity(buffer_count.min(buf.len()));
    for _ in 0..buffer_count {
        let len = u32::from_le_bytes(take_le(&mut buf)?) as usize;
        buffers.push(take(&mut buf, 4 * len)?.chunks_exact(4).map(le_f32).collect());
    }

    let mut arena = WeightArena::new_zeroed(cursor);
    let dst = arena.data_mut();
    for (offset, _, payload) in &records {
        for (d, src) in dst[*offset..].iter_mut().zip(payload.chunks_exact(4)) {
            *d = le_f32(src);
        }
    }
    let arena = Arc::new(arena);
    let views = records
        .into_iter()
        .map(|(offset, dims, _)| ArenaView::new(Arc::clone(&arena), offset, Shape::new(dims)))
        .collect();
    Ok(ArenaParams { arch_id, views, buffers })
}

/// Restores parameters into `net` from a blob produced by
/// [`encode_params`]: the arena decode, the shared inventory check, then
/// owned copies of every tensor, so the network stays trainable.
///
/// # Errors
///
/// Returns a [`DecodeParamsError`] when the blob is malformed, from a
/// different architecture, or shape-incompatible; the network is then
/// untouched.
pub fn decode_params(net: &mut Network, blob: &[u8]) -> Result<(), DecodeParamsError> {
    decode_params_arena(blob)?.install(net, |net, views| {
        net.load_state(&views.iter().map(ArenaView::snapshot).collect::<Vec<Tensor>>());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build, ArchSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_preserves_predictions() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 3);
        let blob = encode_params(&mut net);
        let mut fresh = build(&spec, 99);
        decode_params(&mut fresh, &blob).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::uniform(vec![2, 1, 8, 8], -1.0, 1.0, &mut rng);
        assert_eq!(net.predict_proba(&x), fresh.predict_proba(&x));
    }

    #[test]
    fn round_trip_preserves_batchnorm_running_stats() {
        // Regression test: running statistics are not trainable parameters
        // but inference depends on them; a codec that drops them silently
        // collapses the accuracy of every reloaded BN network.
        use crate::loss::softmax_cross_entropy;
        use crate::optim::Sgd;
        let spec = ArchSpec::resnet20_mini(1, 8, 8, 4);
        let mut net = build(&spec, 3);
        // A few training steps so running stats move off their defaults.
        let mut rng = StdRng::seed_from_u64(1);
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        for _ in 0..5 {
            let x = Tensor::uniform(vec![8, 1, 8, 8], 0.0, 1.0, &mut rng);
            net.zero_grads();
            let logits = net.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3, 0, 1, 2, 3]);
            net.backward(&grad);
            opt.step(&mut net);
        }
        let blob = encode_params(&mut net);
        let mut fresh = build(&spec, 77);
        decode_params(&mut fresh, &blob).unwrap();
        let x = Tensor::uniform(vec![4, 1, 8, 8], 0.0, 1.0, &mut rng);
        assert_eq!(
            net.predict_proba(&x),
            fresh.predict_proba(&x),
            "inference after reload must be bit-identical, including BN stats"
        );
        // And the buffers themselves round-tripped.
        let mut orig_buffers = Vec::new();
        net.visit_buffers(&mut |b| orig_buffers.push(b.clone()));
        let mut new_buffers = Vec::new();
        fresh.visit_buffers(&mut |b| new_buffers.push(b.clone()));
        assert_eq!(orig_buffers, new_buffers);
        assert!(!orig_buffers.is_empty(), "resnet must expose BN buffers");
    }

    #[test]
    fn rejects_garbage() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 0);
        assert_eq!(decode_params(&mut net, b"nope"), Err(DecodeParamsError::BadMagic));
    }

    #[test]
    fn single_bit_flips_anywhere_are_rejected() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 1);
        let blob = encode_params(&mut net);
        let mut victim = build(&spec, 2);
        let before = victim.state_dict();
        // Header flips trip magic/version/length checks; body flips (the
        // weight payload starts at byte 18) trip the FNV checksum.
        for pos in [0usize, 5, 18, blob.len() / 2, blob.len() - 1] {
            for bit in [0u8, 3, 7] {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    decode_params(&mut victim, &bad).is_err(),
                    "bit {bit} of byte {pos} flipped silently"
                );
                assert_eq!(victim.state_dict(), before);
            }
        }
        // Payload corruption specifically reports the checksum.
        let mut bad = blob.clone();
        bad[blob.len() - 2] ^= 0x10;
        assert_eq!(decode_params(&mut victim, &bad), Err(DecodeParamsError::ChecksumMismatch));
    }

    #[test]
    fn rejects_truncated_blob() {
        let spec = ArchSpec::convnet(1, 8, 8, 4);
        let mut net = build(&spec, 0);
        let blob = encode_params(&mut net);
        let cut = &blob[..blob.len() / 2];
        assert_eq!(decode_params(&mut net, cut), Err(DecodeParamsError::Truncated));
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut a = build(&ArchSpec::convnet(1, 8, 8, 4), 0);
        let mut b = build(&ArchSpec::lenet5(1, 16, 16, 10), 0);
        let blob = encode_params(&mut a);
        match decode_params(&mut b, &blob) {
            Err(DecodeParamsError::ArchMismatch { .. }) => {}
            other => panic!("expected arch mismatch, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let err = DecodeParamsError::BadVersion(9);
        assert!(err.to_string().contains('9'));
    }
}
