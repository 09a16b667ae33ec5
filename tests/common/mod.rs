//! Helpers shared by the integration tests.

use std::path::{Path, PathBuf};

/// A fresh directory for one test's files, removed when the test ends.
/// Tests run on parallel threads, and test runs may overlap, so no two
/// tests may share a fixture path: a truncating write in one would hand
/// another a half-written file.
pub struct TestDir(PathBuf);

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// An empty directory private to this process and the test `name`.
pub fn test_dir(name: &str) -> TestDir {
    let dir = std::env::temp_dir().join(format!("isdl-suite-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    TestDir(dir)
}
