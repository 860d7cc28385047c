#include "data/dataset_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/fs.h"

namespace mrcc {
namespace {

constexpr char kMagic[4] = {'M', 'R', 'C', 'C'};
constexpr uint32_t kVersion = 1;

// magic + version + num_points + num_dims.
constexpr uint64_t kHeaderBytes =
    sizeof(kMagic) + sizeof(uint32_t) + 2 * sizeof(uint64_t);

template <typename T>
void WritePod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void WriteArray(std::ofstream& out, const T* v, size_t count) {
  out.write(reinterpret_cast<const char*>(v),
            static_cast<std::streamsize>(count * sizeof(T)));
}

}  // namespace

Status SaveCsv(const Dataset& data, const std::string& path,
               const std::vector<int>* labels) {
  if (labels != nullptr && labels->size() != data.NumPoints()) {
    return Status::InvalidArgument("labels size != number of points");
  }
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.precision(17);
  for (size_t i = 0; i < data.NumPoints(); ++i) {
    for (size_t j = 0; j < data.NumDims(); ++j) {
      if (j > 0) out << ',';
      out << data(i, j);
    }
    if (labels != nullptr) out << ',' << (*labels)[i];
    out << '\n';
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Dataset> LoadCsv(const std::string& path, bool has_label_column,
                        std::vector<int>* labels) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  Dataset data;
  if (labels != nullptr) labels->clear();

  std::string line;
  size_t line_no = 0;
  std::vector<double> row;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    row.clear();
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) {
      try {
        row.push_back(std::stod(field));
      } catch (const std::exception&) {
        return Status::IOError("bad numeric field at " + path + ":" +
                               std::to_string(line_no));
      }
    }
    if (row.empty()) continue;
    int label = kNoiseLabel;
    if (has_label_column) {
      label = static_cast<int>(row.back());
      row.pop_back();
    }
    if (data.NumPoints() > 0 && row.size() != data.NumDims()) {
      return Status::IOError("inconsistent column count at " + path + ":" +
                             std::to_string(line_no));
    }
    data.AppendPoint(row);
    if (has_label_column && labels != nullptr) labels->push_back(label);
  }
  return data;
}

Status SaveBinary(const Dataset& data, const std::string& path,
                  const std::vector<int>* labels) {
  if (labels != nullptr && labels->size() != data.NumPoints()) {
    return Status::InvalidArgument("labels size != number of points");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(data.NumPoints()));
  WritePod(out, static_cast<uint64_t>(data.NumDims()));
  // The points are one row-major buffer and the labels one int32 array,
  // each written in one call.
  if (data.NumPoints() > 0 && data.NumDims() > 0) {
    WriteArray(out, data.Point(0).data(), data.NumPoints() * data.NumDims());
  }
  WritePod(out, static_cast<uint8_t>(labels != nullptr ? 1 : 0));
  if (labels != nullptr) {
    static_assert(sizeof(int) == sizeof(int32_t));
    WriteArray(out, labels->data(), labels->size());
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<BinaryHeader> ReadBinaryHeader(int fd, const std::string& path) {
  unsigned char header[kHeaderBytes];
  MRCC_RETURN_IF_ERROR(ReadExactAt(fd, header, sizeof(header), 0, path));
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("bad magic in " + path);
  }
  uint32_t version = 0;
  uint64_t num_points = 0, num_dims = 0;
  std::memcpy(&version, header + sizeof(kMagic), sizeof(version));
  std::memcpy(&num_points, header + sizeof(kMagic) + sizeof(version),
              sizeof(num_points));
  std::memcpy(&num_dims,
              header + sizeof(kMagic) + sizeof(version) + sizeof(num_points),
              sizeof(num_dims));
  if (version != kVersion) {
    return Status::IOError("unsupported version " + std::to_string(version) +
                           " in " + path);
  }
  if (num_points > 0 && num_dims == 0) {
    return Status::IOError("corrupt header in " + path + ": " +
                           std::to_string(num_points) +
                           " points with zero dimensions");
  }
  // The size arithmetic below must not wrap: a corrupt header with
  // astronomical counts would otherwise pass the truncation check and
  // send a scan off the end of the file.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (num_dims > kMax / sizeof(double) ||
      (num_points > 0 &&
       num_dims * sizeof(double) > (kMax - kHeaderBytes) / num_points)) {
    return Status::IOError("corrupt header in " + path + ": " +
                           std::to_string(num_points) + " points x " +
                           std::to_string(num_dims) +
                           " dims overflows the file size");
  }
  // Reject a truncated file up front, so it fails here with its exact
  // byte deficit instead of mid-scan.
  Result<uint64_t> size = FileSize(fd, path);
  if (!size.ok()) return size.status();
  const uint64_t needed =
      kHeaderBytes + num_points * num_dims * sizeof(double);
  if (*size < needed) {
    return Status::IOError(
        "truncated file " + path + ": data ends at byte " +
        std::to_string(*size) + " but the header promises " +
        std::to_string(needed) + " bytes (" + std::to_string(num_points) +
        " points x " + std::to_string(num_dims) + " dims)");
  }
  return BinaryHeader{num_points, num_dims, kHeaderBytes};
}

Result<Dataset> LoadBinary(const std::string& path, std::vector<int>* labels) {
  Result<UniqueFd> fd = OpenForRead(path);
  if (!fd.ok()) return fd.status();
  Result<BinaryHeader> header = ReadBinaryHeader(fd->get(), path);
  if (!header.ok()) return header.status();
  Dataset data(header->num_points, header->num_dims);
  const uint64_t payload =
      uint64_t{header->num_points} * header->num_dims * sizeof(double);
  if (payload > 0) {
    // One read straight into the dataset's row-major buffer.
    MRCC_RETURN_IF_ERROR(ReadExactAt(fd->get(), &data(0, 0), payload,
                                     header->data_start, path));
  }
  uint64_t offset = header->data_start + payload;
  uint8_t has_labels = 0;
  MRCC_RETURN_IF_ERROR(
      ReadExactAt(fd->get(), &has_labels, sizeof(has_labels), offset, path));
  if (has_labels != 0) {
    offset += sizeof(has_labels);
    std::vector<int32_t> tmp(header->num_points);
    MRCC_RETURN_IF_ERROR(ReadExactAt(fd->get(), tmp.data(),
                                     tmp.size() * sizeof(int32_t), offset,
                                     path));
    if (labels != nullptr) labels->assign(tmp.begin(), tmp.end());
  }
  return data;
}

}  // namespace mrcc
