//! Tiny binary reader/writer for the management protocol's wire format.

use hydranet_netsim::packet::IpAddr;
use hydranet_tcp::segment::SockAddr;

/// Serialisation buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Finishes and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends an address (4 bytes).
    pub fn addr(&mut self, a: IpAddr) -> &mut Self {
        self.u32(a.to_bits())
    }

    /// Appends a socket address (6 bytes).
    pub fn sockaddr(&mut self, s: SockAddr) -> &mut Self {
        self.addr(s.addr).u16(s.port)
    }

    /// Appends an optional address: presence byte + 4 bytes.
    pub fn opt_addr(&mut self, a: Option<IpAddr>) -> &mut Self {
        match a {
            Some(a) => self.u8(1).addr(a),
            None => self.u8(0),
        }
    }
}

/// Deserialisation cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Error returned when a management message fails to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset at which parsing failed.
    pub at: usize,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed management message at byte {}", self.at)
    }
}

impl std::error::Error for WireError {}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an address.
    pub fn addr(&mut self) -> Result<IpAddr, WireError> {
        Ok(IpAddr::from_bits(self.u32()?))
    }

    /// Reads a socket address.
    pub fn sockaddr(&mut self) -> Result<SockAddr, WireError> {
        Ok(SockAddr::new(self.addr()?, self.u16()?))
    }

    /// Reads an optional address.
    pub fn opt_addr(&mut self) -> Result<Option<IpAddr>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.addr()?)),
        }
    }

    /// Whether all bytes have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Offset of the next unread byte.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(u64::MAX - 1)
            .addr(IpAddr::new(1, 2, 3, 4))
            .sockaddr(SockAddr::new(IpAddr::new(9, 9, 9, 9), 80))
            .opt_addr(Some(IpAddr::new(5, 6, 7, 8)))
            .opt_addr(None);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.addr().unwrap(), IpAddr::new(1, 2, 3, 4));
        assert_eq!(
            r.sockaddr().unwrap(),
            SockAddr::new(IpAddr::new(9, 9, 9, 9), 80)
        );
        assert_eq!(r.opt_addr().unwrap(), Some(IpAddr::new(5, 6, 7, 8)));
        assert_eq!(r.opt_addr().unwrap(), None);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_errors_carry_offset() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u16().unwrap(), 0x0102);
        let err = r.u32().unwrap_err();
        assert_eq!(err.at, 2);
        assert!(err.to_string().contains("byte 2"));
    }
}
