//! Offline stand-in for the subset of the `bytes` crate this workspace
//! uses: `BufMut` as a little-endian writer into `Vec<u8>` and `Buf` as a
//! consuming little-endian reader over `&[u8]`.

/// Little-endian write methods.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32);
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32_le(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Little-endian consuming read methods.
///
/// The `get_*` methods panic when the buffer is too short, matching
/// upstream `bytes`; callers bound-check with [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);
    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }
    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self[..2].try_into().expect("2 bytes"));
        *self = &self[2..];
        v
    }
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().expect("4 bytes"));
        *self = &self[4..];
        v
    }
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().expect("8 bytes"));
        *self = &self[8..];
        v
    }
    fn get_f32_le(&mut self) -> f32 {
        let v = f32::from_le_bytes(self[..4].try_into().expect("4 bytes"));
        *self = &self[4..];
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut buf = Vec::new();
        buf.put_slice(b"PGMR");
        buf.put_u8(7);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(0x0102_0304_0506_0708);
        buf.put_f32_le(1.5);
        let mut r: &[u8] = &buf;
        assert_eq!(r.remaining(), 23);
        assert_eq!(&r[..4], b"PGMR");
        r.advance(4);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xdead_beef);
        assert_eq!(r.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.remaining(), 0);
    }
}
