//! Page stores: the raw fixed-size-page backends.

use crate::error::SgResult;
use crate::PageId;
use parking_lot::Mutex;

/// A store of fixed-size pages.
///
/// Implementations must be safe for concurrent use; the workspace's indexes
/// are single-writer but queries may run from several threads in the
/// experiment harness.
pub trait PageStore: Send + Sync {
    /// The size in bytes of every page in this store.
    fn page_size(&self) -> usize;

    /// Allocates a fresh (zeroed) page and returns its id. Recycles freed
    /// ids when available.
    fn allocate(&self) -> PageId;

    /// Returns a page to the free list. Reading a freed page is a logic
    /// error; stores may return zeroes or stale bytes.
    fn free(&self, id: PageId);

    /// Reads page `id` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != page_size()` or `id` was never allocated.
    fn read(&self, id: PageId, buf: &mut [u8]);

    /// Writes `buf` as the new contents of page `id`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != page_size()` or `id` was never allocated.
    fn write(&self, id: PageId, buf: &[u8]);

    /// Number of pages currently allocated (excluding freed ones).
    fn allocated_pages(&self) -> u64;

    /// Fallible [`PageStore::allocate`]: propagates I/O failures instead of
    /// panicking. Write paths (ingest, checkpoint) use these `try_*` forms;
    /// the panicking forms remain for the read-hot query paths whose
    /// signatures predate live writes.
    fn try_allocate(&self) -> SgResult<PageId> {
        Ok(self.allocate())
    }

    /// Fallible [`PageStore::free`].
    fn try_free(&self, id: PageId) -> SgResult<()> {
        self.free(id);
        Ok(())
    }

    /// Fallible [`PageStore::read`].
    fn try_read(&self, id: PageId, buf: &mut [u8]) -> SgResult<()> {
        self.read(id, buf);
        Ok(())
    }

    /// Fallible [`PageStore::write`].
    fn try_write(&self, id: PageId, buf: &[u8]) -> SgResult<()> {
        self.write(id, buf);
        Ok(())
    }

    /// Forces written pages to stable storage. In-memory stores are a
    /// no-op; file stores `fsync`.
    fn sync(&self) -> SgResult<()> {
        Ok(())
    }
}

struct MemStoreInner {
    pages: Vec<Option<Box<[u8]>>>,
    free_list: Vec<PageId>,
}

/// An in-memory [`PageStore`]. Used by unit tests and by experiments that
/// measure page *counts* rather than physical latency.
pub struct MemStore {
    page_size: usize,
    inner: Mutex<MemStoreInner>,
}

impl MemStore {
    /// Creates an empty store with the given page size.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0);
        MemStore {
            page_size,
            inner: Mutex::new(MemStoreInner {
                pages: Vec::new(),
                free_list: Vec::new(),
            }),
        }
    }
}

impl PageStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn allocate(&self) -> PageId {
        let mut inner = self.inner.lock();
        if let Some(id) = inner.free_list.pop() {
            inner.pages[id as usize] = Some(vec![0u8; self.page_size].into_boxed_slice());
            id
        } else {
            let id = inner.pages.len() as PageId;
            inner
                .pages
                .push(Some(vec![0u8; self.page_size].into_boxed_slice()));
            id
        }
    }

    fn free(&self, id: PageId) {
        let mut inner = self.inner.lock();
        let slot = inner
            .pages
            .get_mut(id as usize)
            .unwrap_or_else(|| panic!("free of unallocated page {id}"));
        assert!(slot.is_some(), "double free of page {id}");
        *slot = None;
        inner.free_list.push(id);
    }

    fn read(&self, id: PageId, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.page_size);
        let inner = self.inner.lock();
        let page = inner
            .pages
            .get(id as usize)
            .and_then(|p| p.as_ref())
            .unwrap_or_else(|| panic!("read of unallocated page {id}"));
        buf.copy_from_slice(page);
    }

    fn write(&self, id: PageId, buf: &[u8]) {
        assert_eq!(buf.len(), self.page_size);
        let mut inner = self.inner.lock();
        let page = inner
            .pages
            .get_mut(id as usize)
            .and_then(|p| p.as_mut())
            .unwrap_or_else(|| panic!("write of unallocated page {id}"));
        page.copy_from_slice(buf);
    }

    fn allocated_pages(&self) -> u64 {
        let inner = self.inner.lock();
        (inner.pages.len() - inner.free_list.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        let ps = store.page_size();
        let a = store.allocate();
        let b = store.allocate();
        assert_ne!(a, b);
        assert_eq!(store.allocated_pages(), 2);

        let mut page = vec![0u8; ps];
        page[0] = 0xAB;
        page[ps - 1] = 0xCD;
        store.write(a, &page);

        let mut out = vec![0u8; ps];
        store.read(a, &mut out);
        assert_eq!(out, page);

        // b is zeroed on allocation.
        store.read(b, &mut out);
        assert!(out.iter().all(|&x| x == 0));

        // Freed ids are recycled.
        store.free(a);
        assert_eq!(store.allocated_pages(), 1);
        let c = store.allocate();
        assert_eq!(c, a);
        assert_eq!(store.allocated_pages(), 2);
    }

    #[test]
    fn mem_store_roundtrip() {
        exercise(&MemStore::new(128));
    }

    #[test]
    fn mem_store_reallocated_page_is_zeroed() {
        let store = MemStore::new(32);
        let a = store.allocate();
        store.write(a, &[1u8; 32]);
        store.free(a);
        let b = store.allocate();
        assert_eq!(a, b);
        let mut out = [9u8; 32];
        store.read(b, &mut out);
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn mem_store_double_free_panics() {
        let store = MemStore::new(32);
        let a = store.allocate();
        store.free(a);
        store.free(a);
    }
}
