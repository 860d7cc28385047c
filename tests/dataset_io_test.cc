#include "data/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "test_util.h"

namespace mrcc {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    return ::testing::TempDir() + "mrcc_io_" + name;
  }
};

TEST_F(DatasetIoTest, CsvRoundTrip) {
  Dataset d = testing::MakeDataset({{0.25, 0.5}, {0.75, 0.125}});
  const std::string path = Path("plain.csv");
  ASSERT_TRUE(SaveCsv(d, path).ok());
  Result<Dataset> loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumPoints(), 2u);
  ASSERT_EQ(loaded->NumDims(), 2u);
  EXPECT_DOUBLE_EQ((*loaded)(1, 0), 0.75);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, CsvRoundTripWithLabels) {
  Dataset d = testing::MakeDataset({{0.1}, {0.2}, {0.3}});
  const std::vector<int> labels{1, kNoiseLabel, 0};
  const std::string path = Path("labels.csv");
  ASSERT_TRUE(SaveCsv(d, path, &labels).ok());
  std::vector<int> loaded_labels;
  Result<Dataset> loaded = LoadCsv(path, /*has_label_column=*/true,
                                   &loaded_labels);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumDims(), 1u);
  EXPECT_EQ(loaded_labels, labels);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, CsvPreservesPrecision) {
  Dataset d = testing::MakeDataset({{0.12345678901234567}});
  const std::string path = Path("precision.csv");
  ASSERT_TRUE(SaveCsv(d, path).ok());
  Result<Dataset> loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ((*loaded)(0, 0), 0.12345678901234567);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, CsvLabelSizeMismatchRejected) {
  Dataset d = testing::MakeDataset({{0.1}, {0.2}});
  const std::vector<int> labels{0};
  EXPECT_EQ(SaveCsv(d, Path("bad.csv"), &labels).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, CsvMissingFileIsIOError) {
  Result<Dataset> r = LoadCsv("/nonexistent/dir/file.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(DatasetIoTest, CsvMalformedFieldIsIOError) {
  const std::string path = Path("malformed.csv");
  {
    std::ofstream out(path);
    out << "0.5,abc\n";
  }
  Result<Dataset> r = LoadCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, CsvInconsistentColumnsIsIOError) {
  const std::string path = Path("jagged.csv");
  {
    std::ofstream out(path);
    out << "0.5,0.25\n0.5\n";
  }
  Result<Dataset> r = LoadCsv(path);
  ASSERT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, BinaryRoundTrip) {
  Dataset d = testing::UniformDataset(100, 7, 42);
  const std::string path = Path("plain.bin");
  ASSERT_TRUE(SaveBinary(d, path).ok());
  Result<Dataset> loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->NumPoints(), 100u);
  ASSERT_EQ(loaded->NumDims(), 7u);
  for (size_t i = 0; i < 100; ++i) {
    for (size_t j = 0; j < 7; ++j) {
      ASSERT_DOUBLE_EQ((*loaded)(i, j), d(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, BinaryRoundTripWithLabels) {
  Dataset d = testing::MakeDataset({{0.5}, {0.25}});
  const std::vector<int> labels{7, kNoiseLabel};
  const std::string path = Path("labels.bin");
  ASSERT_TRUE(SaveBinary(d, path, &labels).ok());
  std::vector<int> loaded_labels;
  Result<Dataset> loaded = LoadBinary(path, &loaded_labels);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded_labels, labels);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, BinaryBytesMatchTheDocumentedLayout) {
  // The file a small labelled dataset makes, against bytes assembled by
  // hand from the layout: "MRCC", u32 version 1, u64 points, u64 dims,
  // the values row-major as f64, u8 has-labels, then one i32 per point.
  const Dataset d = testing::MakeDataset({{0.5, 0.125}, {0.25, 0.75},
                                          {0.0, 0.9375}});
  const std::vector<int> labels{3, kNoiseLabel, 0};
  const std::string path = Path("layout.bin");
  ASSERT_TRUE(SaveBinary(d, path, &labels).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());

  std::string expected = "MRCC";
  const auto append = [&expected](const auto& v) {
    expected.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  append(uint32_t{1});
  append(uint64_t{3});
  append(uint64_t{2});
  for (const double v : {0.5, 0.125, 0.25, 0.75, 0.0, 0.9375}) append(v);
  append(uint8_t{1});
  for (const int32_t label : {3, -1, 0}) append(label);
  EXPECT_EQ(written, expected);

  // Without labels the file ends at the zero has-labels byte.
  ASSERT_TRUE(SaveBinary(d, path).ok());
  std::ifstream plain(path, std::ios::binary);
  const std::string unlabelled((std::istreambuf_iterator<char>(plain)),
                               std::istreambuf_iterator<char>());
  expected.resize(4 + 4 + 8 + 8 + 6 * 8);
  append(uint8_t{0});
  EXPECT_EQ(unlabelled, expected);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, BinaryRejectsBadMagic) {
  const std::string path = Path("badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE and then some bytes";
  }
  Result<Dataset> r = LoadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST_F(DatasetIoTest, BinaryRejectsTruncatedFile) {
  Dataset d = testing::UniformDataset(50, 3, 1);
  const std::string path = Path("trunc.bin");
  ASSERT_TRUE(SaveBinary(d, path).ok());
  // Truncate to half.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  Result<Dataset> r = LoadBinary(path);
  ASSERT_FALSE(r.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrcc
