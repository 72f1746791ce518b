//! Index persistence: save a built tree to a file (or any writer) and
//! load it back. The on-disk format is a small superblock followed by the
//! live page images — byte-for-byte what the virtual disk holds, so a
//! loaded tree is identical to the saved one (including the holes left by
//! deletions, which stay reusable).
//!
//! Format (little-endian):
//!
//! ```text
//! magic "AMDJRT01" | dim u32 | page_size u32 | height u32 | pad u32
//! len u64 | root+1 u64 (0 = empty) | page_count u64
//! page_count × (page_id u64, image page_size bytes)
//! ```

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use amdj_storage::PageId;

use crate::{RTree, RTreeParams};

const MAGIC: &[u8; 8] = b"AMDJRT01";

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_exact_array<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

impl<const D: usize> RTree<D> {
    /// Serializes the tree to `w`. Statistics are not persisted.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&(D as u32).to_le_bytes())?;
        w.write_all(&(self.params().page_size as u32).to_le_bytes())?;
        w.write_all(&self.height.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&self.len.to_le_bytes())?;
        w.write_all(&self.root.map_or(0, |p| p.0 + 1).to_le_bytes())?;
        let pages: Vec<(PageId, &[u8])> = self.pages.disk().live_page_images().collect();
        w.write_all(&(pages.len() as u64).to_le_bytes())?;
        for (pid, img) in pages {
            w.write_all(&pid.0.to_le_bytes())?;
            w.write_all(img)?;
        }
        Ok(())
    }

    /// Saves to a file (created or truncated).
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.save(&mut w)?;
        w.flush()
    }

    /// Loads a tree saved by [`save`](RTree::save). `params` supplies the
    /// runtime configuration (buffer size, cost model); its page size must
    /// match the saved one.
    pub fn load(r: &mut impl Read, params: RTreeParams) -> io::Result<Self> {
        let magic = read_exact_array::<8>(r)?;
        if &magic != MAGIC {
            return Err(bad("not an AMDJ R-tree file"));
        }
        let dim = u32::from_le_bytes(read_exact_array::<4>(r)?);
        if dim as usize != D {
            return Err(bad("dimension mismatch"));
        }
        let page_size = u32::from_le_bytes(read_exact_array::<4>(r)?) as usize;
        if page_size != params.page_size {
            return Err(bad("page size mismatch"));
        }
        let height = u32::from_le_bytes(read_exact_array::<4>(r)?);
        let _pad = read_exact_array::<4>(r)?;
        let len = u64::from_le_bytes(read_exact_array::<8>(r)?);
        let root_plus1 = u64::from_le_bytes(read_exact_array::<8>(r)?);
        let page_count = u64::from_le_bytes(read_exact_array::<8>(r)?);

        let mut tree = RTree::new(params);
        let mut img = vec![0u8; page_size];
        for _ in 0..page_count {
            let pid = u64::from_le_bytes(read_exact_array::<8>(r)?);
            r.read_exact(&mut img)?;
            tree.pages.restore_page(PageId(pid), &img);
        }
        tree.pages.finish_restore();
        tree.reset_stats();
        tree.root = if root_plus1 == 0 {
            None
        } else {
            Some(PageId(root_plus1 - 1))
        };
        tree.height = height;
        tree.len = len;
        if tree.root.is_some() != (len > 0) || (tree.root.is_none() && height != 0) {
            return Err(bad("inconsistent superblock"));
        }
        Ok(tree)
    }

    /// Loads from a file.
    pub fn load_from_path(path: impl AsRef<Path>, params: RTreeParams) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        RTree::load(&mut r, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdj_geom::{Point, Rect};

    fn grid(n: usize) -> Vec<(Rect<2>, u64)> {
        (0..n * n)
            .map(|i| {
                (
                    Rect::from_point(Point::new([(i % n) as f64, (i / n) as f64])),
                    i as u64,
                )
            })
            .collect()
    }

    fn roundtrip(t: &RTree<2>) -> RTree<2> {
        let mut buf = Vec::new();
        t.save(&mut buf).expect("save");
        RTree::load(&mut buf.as_slice(), t.params().clone()).expect("load")
    }

    #[test]
    fn save_load_roundtrip() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid(15));
        let back = roundtrip(&t);
        assert_eq!(back.len(), 225);
        assert_eq!(back.height(), t.height());
        back.validate().expect("loaded tree valid");
        let hits = back.range_query(&Rect::new([2.0, 2.0], [4.0, 4.0]));
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn roundtrip_after_deletions_preserves_holes() {
        let items = grid(12);
        let mut t = RTree::bulk_load(RTreeParams::for_tests(), items.clone());
        for (mbr, id) in items.iter().take(80) {
            assert!(t.delete(mbr, *id));
        }
        let pages_before = t.page_count();
        let mut back = roundtrip(&t);
        back.validate()
            .expect("valid after loading a deleted-from tree");
        assert_eq!(back.len(), t.len());
        assert_eq!(back.page_count(), pages_before);
        // Inserting reuses freed slots rather than growing unboundedly.
        back.insert(Rect::from_point(Point::new([50.0, 50.0])), 9999);
        back.validate().expect("valid after post-load insert");
    }

    #[test]
    fn empty_tree_roundtrip() {
        let t: RTree<2> = RTree::new(RTreeParams::for_tests());
        let back = roundtrip(&t);
        assert!(back.is_empty());
        assert!(back
            .range_query(&Rect::new([0.0, 0.0], [1.0, 1.0]))
            .is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("amdj_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.amdj");
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid(10));
        t.save_to_path(&path).expect("save file");
        let back: RTree<2> =
            RTree::load_from_path(&path, RTreeParams::for_tests()).expect("load file");
        back.validate().expect("valid");
        assert_eq!(back.len(), 100);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut data = b"NOTATREE".to_vec();
        data.extend_from_slice(&[0u8; 64]);
        let err = RTree::<2>::load(&mut data.as_slice(), RTreeParams::for_tests()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid(5));
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let err = RTree::<3>::load(&mut buf.as_slice(), RTreeParams::for_tests()).unwrap_err();
        assert!(err.to_string().contains("dimension"));
    }

    #[test]
    fn rejects_page_size_mismatch() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid(5));
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let other = RTreeParams::paper_defaults();
        let err = RTree::<2>::load(&mut buf.as_slice(), other).unwrap_err();
        assert!(err.to_string().contains("page size"));
    }

    #[test]
    fn rejects_truncated_file() {
        let t = RTree::bulk_load(RTreeParams::for_tests(), grid(8));
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(RTree::<2>::load(&mut buf.as_slice(), RTreeParams::for_tests()).is_err());
    }

    #[test]
    fn loaded_tree_joins_identically() {
        // End-to-end: a saved+loaded index must answer queries exactly as
        // the original.
        let a = grid(10);
        let t = RTree::bulk_load(RTreeParams::for_tests(), a);
        let orig = roundtrip(&t);
        let reloaded = roundtrip(&t);
        let q = Point::new([4.3, 4.7]);
        let x = orig.nearest_neighbors(&q, 7);
        let y = reloaded.nearest_neighbors(&q, 7);
        for (g, w) in x.iter().zip(y.iter()) {
            assert_eq!(g.oid, w.oid);
        }
    }
}
