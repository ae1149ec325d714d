"""Unit tests for the in-memory file system."""

import pytest

from repro.apps.fs import FileSystemError, InMemoryFileSystem


@pytest.fixture()
def fs():
    filesystem = InMemoryFileSystem()
    filesystem.mkdir("/pub")
    filesystem.write("/pub/readme.txt", "hello")
    filesystem.write("/pub/data.bin", b"\x00\x01")
    filesystem.mkdir("/private")
    filesystem.write("/private/secret.txt", "shh")
    return filesystem


class TestBasics:
    def test_read_text_and_binary(self, fs):
        assert fs.read("/pub/readme.txt") == b"hello"
        assert fs.read("/pub/data.bin") == b"\x00\x01"

    def test_listdir_sorted(self, fs):
        assert fs.listdir("/pub") == ["data.bin", "readme.txt"]
        assert fs.listdir("/") == ["private", "pub"]

    def test_exists_and_is_dir(self, fs):
        assert fs.exists("/pub") and fs.is_dir("/pub")
        assert fs.exists("/pub/readme.txt") and not fs.is_dir("/pub/readme.txt")
        assert not fs.exists("/ghost")

    def test_overwrite(self, fs):
        fs.write("/pub/readme.txt", "v2")
        assert fs.read("/pub/readme.txt") == b"v2"

    def test_remove(self, fs):
        fs.remove("/pub/readme.txt")
        assert not fs.exists("/pub/readme.txt")

    def test_tree_listing(self, fs):
        entries = dict(fs.tree("/"))
        assert entries["/pub"] is True
        assert entries["/pub/readme.txt"] is False
        assert entries["/private/secret.txt"] is False


class TestErrors:
    def test_relative_path_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.read("pub/readme.txt")

    def test_read_missing(self, fs):
        with pytest.raises(FileSystemError):
            fs.read("/nope")

    def test_read_directory(self, fs):
        with pytest.raises(FileSystemError):
            fs.read("/pub")

    def test_listdir_on_file(self, fs):
        with pytest.raises(FileSystemError):
            fs.listdir("/pub/readme.txt")

    def test_write_missing_parent(self, fs):
        with pytest.raises(FileSystemError):
            fs.write("/a/b/c.txt", "x")

    def test_write_with_parents(self, fs):
        fs.write("/a/b/c.txt", "x", parents=True)
        assert fs.read("/a/b/c.txt") == b"x"

    def test_write_over_directory_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.write("/pub", "x")

    def test_mkdir_over_file_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.mkdir("/pub/readme.txt")

    def test_remove_missing(self, fs):
        with pytest.raises(FileSystemError):
            fs.remove("/ghost")

    def test_remove_root_rejected(self, fs):
        with pytest.raises(FileSystemError):
            fs.remove("/")


class TestGuardedFileSystem:
    @pytest.fixture()
    def guarded(self, fs, server_kp, alice_kp, rng):
        from repro.apps.fs import GuardedFileSystem, fs_subtree_tag
        from repro.core.principals import KeyPrincipal
        from repro.core.proofs import SignedCertificateStep
        from repro.guard import Guard
        from repro.net.trust import TrustEnvironment
        from repro.spki import Certificate

        owner = KeyPrincipal(server_kp.public)
        alice = KeyPrincipal(alice_kp.public)
        guard = Guard(TrustEnvironment(), check_charge=None)
        # The owner grants Alice read access under /pub only.
        guard.cache.add(
            SignedCertificateStep(
                Certificate.issue(
                    server_kp, alice, fs_subtree_tag("read", "/pub"), rng=rng
                )
            )
        )
        return GuardedFileSystem(fs, owner, guard), alice

    def test_delegated_read_granted_and_audited(self, guarded):
        gfs, alice = guarded
        assert gfs.read("/pub/readme.txt", alice) == b"hello"
        assert gfs.listdir("/pub", alice) == ["data.bin", "readme.txt"]
        assert len(gfs.guard.audit.by_transport("fs")) == 2

    def test_outside_subtree_challenged(self, guarded):
        from repro.core.errors import NeedAuthorizationError

        gfs, alice = guarded
        with pytest.raises(NeedAuthorizationError):
            gfs.read("/private/secret.txt", alice)

    def test_write_needs_write_authority(self, guarded):
        from repro.core.errors import NeedAuthorizationError

        gfs, alice = guarded
        with pytest.raises(NeedAuthorizationError):
            gfs.write("/pub/new.txt", b"x", alice)
