// Dataset serialization: CSV (interchange) and a compact binary format.
//
// CSV layout: one point per row, `d` comma-separated values; when a
// clustering is saved alongside, a trailing integer column carries the
// cluster label (-1 = noise).
//
// Binary layout (little-endian host order):
//   magic "MRCC" | u32 version | u64 num_points | u64 num_dims
//   | num_points * num_dims f64 values | u8 has_labels
//   | (if has_labels) num_points i32 labels
// The header is 24 bytes, so the point values start 8-byte aligned and a
// memory-mapped file can serve the doubles in place.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace mrcc {

/// Writes `data` as CSV. When `labels` is non-null it must have one entry
/// per point and is appended as the last column.
[[nodiscard]] Status SaveCsv(const Dataset& data, const std::string& path,
               const std::vector<int>* labels = nullptr);

/// Reads a CSV file written by SaveCsv (or any numeric CSV). When
/// `has_label_column` is true the last column is parsed into `labels`.
[[nodiscard]] Result<Dataset> LoadCsv(const std::string& path,
                        bool has_label_column = false,
                        std::vector<int>* labels = nullptr);

/// Writes the binary format described above.
[[nodiscard]] Status SaveBinary(const Dataset& data, const std::string& path,
                  const std::vector<int>* labels = nullptr);

/// Geometry of a binary dataset file, as its header declares it.
struct BinaryHeader {
  size_t num_points = 0;
  size_t num_dims = 0;
  /// Byte offset of the first point's values (end of the header).
  uint64_t data_start = 0;
};

/// Parses the header of the binary file open as `fd` (`path` names it in
/// errors) — the format's only header parser. Rejects a bad magic or
/// version, points with zero dimensions, counts whose byte size overflows,
/// and a file too short for the points it declares (naming the byte where
/// the data ends), so a read of any point in [0, num_points) stays inside
/// the file. The file may be longer: SaveBinary appends the labels.
[[nodiscard]] Result<BinaryHeader> ReadBinaryHeader(int fd,
                                                    const std::string& path);

/// Reads the binary format. Labels are returned through `labels` when
/// present in the file and `labels` is non-null.
[[nodiscard]] Result<Dataset> LoadBinary(const std::string& path,
                           std::vector<int>* labels = nullptr);

}  // namespace mrcc

