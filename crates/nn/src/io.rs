//! Model persistence: a small self-describing binary format for trained
//! complex networks, so a model trained once can be deployed onto any
//! metasurface installation later (the CLI's workflow).
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic  "MAI1"            4 bytes
//! rows   u32               output classes R
//! cols   u32               input length U
//! data   R·U × (f64, f64)  weight re/im pairs, row-major
//! ```

use crate::complex_lnn::ComplexLnn;
use metaai_math::{CMat, C64};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"MAI1";

/// Most weights [`read_model`] reserves before reading them (1 MiB).
const MAX_RESERVE: usize = 1 << 16;

/// Serializes a network into a writer.
pub fn write_model<W: Write>(net: &ComplexLnn, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let rows = u32::try_from(net.num_classes())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many classes"))?;
    let cols = u32::try_from(net.input_len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "input too long"))?;
    w.write_all(&rows.to_le_bytes())?;
    w.write_all(&cols.to_le_bytes())?;
    for z in net.weights.as_slice() {
        w.write_all(&z.re.to_le_bytes())?;
        w.write_all(&z.im.to_le_bytes())?;
    }
    Ok(())
}

/// Deserializes a network from a reader.
pub fn read_model<R: Read>(mut r: R) -> io::Result<ComplexLnn> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a MetaAI model file (bad magic)",
        ));
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let rows = u32::from_le_bytes(buf4) as usize;
    r.read_exact(&mut buf4)?;
    let cols = u32::from_le_bytes(buf4) as usize;
    if rows < 2 || cols == 0 || rows.saturating_mul(cols) > 64 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible model shape {rows}×{cols}"),
        ));
    }
    // The header is not trusted until the weights behind it have been
    // read: reserve at most MAX_RESERVE up front and grow as they arrive.
    let mut data = Vec::with_capacity((rows * cols).min(MAX_RESERVE));
    let mut buf8 = [0u8; 8];
    for _ in 0..rows * cols {
        r.read_exact(&mut buf8)?;
        let re = f64::from_le_bytes(buf8);
        r.read_exact(&mut buf8)?;
        let im = f64::from_le_bytes(buf8);
        if !re.is_finite() || !im.is_finite() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "non-finite weight in model file",
            ));
        }
        data.push(C64::new(re, im));
    }
    Ok(ComplexLnn::from_weights(CMat::from_rows(rows, cols, data)))
}

/// Saves a network to a file.
pub fn save_model<P: AsRef<Path>>(net: &ComplexLnn, path: P) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_model(net, io::BufWriter::new(f))
}

/// Loads a network from a file.
pub fn load_model<P: AsRef<Path>>(path: P) -> io::Result<ComplexLnn> {
    let f = std::fs::File::open(path)?;
    read_model(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaai_math::rng::SimRng;

    fn net() -> ComplexLnn {
        let mut rng = SimRng::seed_from_u64(7);
        ComplexLnn::init(5, 13, &mut rng)
    }

    #[test]
    fn round_trip_preserves_weights_exactly() {
        let original = net();
        let mut buf = Vec::new();
        write_model(&original, &mut buf).expect("write");
        let loaded = read_model(&buf[..]).expect("read");
        assert_eq!(loaded.weights, original.weights);
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join("metaai-model-test.bin");
        let original = net();
        save_model(&original, &path).expect("save");
        let loaded = load_model(&path).expect("load");
        assert_eq!(loaded.weights, original.weights);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_model(&b"NOPE...."[..]).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_data() {
        let mut buf = Vec::new();
        write_model(&net(), &mut buf).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(read_model(&buf[..]).is_err());
    }

    #[test]
    fn rejects_implausible_shapes() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_model(&buf[..]).is_err());
    }

    #[test]
    fn rejects_non_finite_weights() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&f64::NAN.to_le_bytes());
        buf.extend_from_slice(&0.0f64.to_le_bytes());
        buf.extend_from_slice(&0.0f64.to_le_bytes());
        buf.extend_from_slice(&0.0f64.to_le_bytes());
        assert!(read_model(&buf[..]).is_err());
    }
}
