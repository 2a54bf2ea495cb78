"""Tests for the client-visible data model types and errors."""

import pytest

from repro.core.datamodel import (DatastoreError, GetResult, PutResult,
                                  RequestTimeout, VersionMismatch)


def test_get_result_not_found_shape():
    missing = GetResult.not_found()
    assert not missing.found
    assert missing.value is None
    assert missing.version == 0


def test_get_result_is_immutable():
    got = GetResult(value=b"v", version=3)
    with pytest.raises(Exception):
        got.value = b"other"


def test_version_mismatch_carries_versions():
    err = VersionMismatch(expected=3, actual=5)
    assert err.expected == 3 and err.actual == 5
    assert "3" in str(err) and "5" in str(err)
    assert isinstance(err, DatastoreError)
    assert err.code == "version-mismatch"


def test_error_codes_distinct():
    codes = {cls.code for cls in
             (DatastoreError, VersionMismatch, RequestTimeout)}
    assert len(codes) == 3


def test_put_result_shape():
    assert PutResult(version=4).version == 4
