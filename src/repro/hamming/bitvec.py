"""Bit-vector helpers for Hamming distance search.

Binary vectors are stored two ways:

* as a dense ``(n, d)`` uint8 array of 0/1 values -- convenient for
  partitioning and for generating datasets, and
* packed into ``(n, ceil(d / 64))`` uint64 words -- used for fast full-vector
  Hamming distances via XOR + popcount (``numpy.bitwise_count``), the
  equivalent of the CPU popcount the paper relies on.

Per-partition distances (the index's code distances and the chain check's
box matrix) XOR integer part codes and count bits with
``numpy.bitwise_count`` as well.
"""

from __future__ import annotations

import numpy as np


def as_bit_matrix(vectors: np.ndarray) -> np.ndarray:
    """Validate and normalise a 0/1 matrix to uint8."""
    matrix = np.asarray(vectors)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D array of binary vectors, got shape {matrix.shape}")
    if matrix.size and not np.isin(matrix, (0, 1)).all():
        raise ValueError("binary vectors may only contain 0 and 1")
    return matrix.astype(np.uint8, copy=False)


def pack_words(vectors: np.ndarray) -> np.ndarray:
    """Pack a ``(n, d)`` 0/1 matrix into ``(n, ceil(d / 64))`` uint64 words."""
    matrix = as_bit_matrix(vectors)
    n, d = matrix.shape
    n_words = (d + 63) // 64
    padded = np.zeros((n, n_words * 64), dtype=np.uint8)
    padded[:, :d] = matrix
    words = np.zeros((n, n_words), dtype=np.uint64)
    for w in range(n_words):
        block = padded[:, w * 64 : (w + 1) * 64].astype(np.uint64)
        weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
        words[:, w] = block @ weights
    return words


def hamming_distance(x: np.ndarray, y: np.ndarray) -> int:
    """Hamming distance between two unpacked binary vectors."""
    if x.shape != y.shape:
        raise ValueError("vectors must have the same dimensionality")
    return int(np.count_nonzero(np.asarray(x) != np.asarray(y)))


def packed_hamming_distances(query_words: np.ndarray, data_words: np.ndarray) -> np.ndarray:
    """Hamming distances from one packed query to many packed data vectors.

    Args:
        query_words: ``(n_words,)`` uint64 packed query.
        data_words: ``(n, n_words)`` uint64 packed data vectors.

    Returns:
        ``(n,)`` int64 array of distances.
    """
    xor = np.bitwise_xor(data_words, query_words[np.newaxis, :])
    return np.bitwise_count(xor).sum(axis=1).astype(np.int64)


def codes_from_bits(bits: np.ndarray) -> np.ndarray:
    """Interpret each row of a ``(n, w)`` 0/1 matrix as an integer code (w <= 63)."""
    matrix = as_bit_matrix(bits)
    width = matrix.shape[1]
    if width > 63:
        raise ValueError("a partition code must fit in 63 bits")
    weights = (1 << np.arange(width, dtype=np.int64))
    return (matrix.astype(np.int64) @ weights).astype(np.int64)


def code_hamming_distances(query_code: int, codes: np.ndarray) -> np.ndarray:
    """Vectorised popcount of ``codes XOR query_code``."""
    xor = np.bitwise_xor(codes.astype(np.uint64), np.uint64(query_code))
    return np.bitwise_count(xor).astype(np.int64)


def popcount(value: int) -> int:
    """Population count of a non-negative Python integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers")
    return value.bit_count()
