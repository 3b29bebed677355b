#include "core/import.hpp"

#include "common/error.hpp"
#include "dfs/path.hpp"
#include "matrix/dfs_io.hpp"
#include "matrix/layout.hpp"
#include "matrix/text_format.hpp"

namespace mri::core {

namespace {

/// Hadoop TextInputFormat split semantics: a mapper owns the lines that
/// START inside its byte range [begin, end); the first mapper also owns
/// byte 0. A line starts right after a '\n'.
struct ByteSplit {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

ByteSplit split_of(std::uint64_t file_size, int m0, int worker) {
  const RowRange r = stripe(static_cast<Index>(file_size), m0, worker);
  return ByteSplit{static_cast<std::uint64_t>(r.begin),
                   static_cast<std::uint64_t>(r.end)};
}

/// Reads the text of the lines owned by `split`, reading past `end` to the
/// first newline when the final owned line spills over.
std::string read_owned_lines(dfs::Dfs::Reader& reader, const ByteSplit& split,
                             IoStats* /*account implicit via reader*/) {
  if (split.begin >= split.end) return {};
  // Find the first owned line start: skip the partial line the previous
  // split owns (unless this is the start of the file).
  std::uint64_t pos = split.begin;
  std::string text;
  if (split.begin > 0) {
    reader.seek(split.begin - 1);
    // Scan forward to the first '\n' at or after begin-1.
    char c = 0;
    std::uint64_t at = split.begin - 1;
    bool found = false;
    while (at < reader.size()) {
      reader.read_exact(std::as_writable_bytes(std::span<char>(&c, 1)));
      ++at;
      if (c == '\n') {
        found = true;
        break;
      }
    }
    if (!found || at >= split.end) return {};  // no line starts here
    pos = at;
  } else {
    reader.seek(0);
  }
  // Read [pos, end), then continue to the closing newline (or EOF).
  std::uint64_t want = split.end - pos;
  text.resize(want);
  reader.read_exact(
      std::as_writable_bytes(std::span<char>(text.data(), text.size())));
  while (text.empty() || text.back() != '\n') {
    char c = 0;
    if (reader.remaining() == 0) break;
    reader.read_exact(std::as_writable_bytes(std::span<char>(&c, 1)));
    text.push_back(c);
  }
  return text;
}

/// Pass 1: count the lines each split owns.
class CountMapper : public mr::Mapper {
 public:
  CountMapper(std::string text_path, std::string out_dir)
      : text_path_(std::move(text_path)), out_dir_(std::move(out_dir)) {}

  void map(std::int64_t, const std::string& value,
           mr::TaskContext& task) override {
    const int m = std::stoi(value);
    auto reader = task.fs().open(text_path_, &task.io());
    const ByteSplit split = split_of(reader.size(), task.cluster_size(), m);
    const std::string text = read_owned_lines(reader, split, &task.io());
    std::int64_t lines = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
      // Count non-empty lines (blank lines are ignored by the parser too).
      if (text[i] == '\n') continue;
      ++lines;
      while (i < text.size() && text[i] != '\n') ++i;
    }
    task.fs().write_text(dfs::join(out_dir_, "count." + std::to_string(m)),
                         std::to_string(lines), &task.io());
  }

 private:
  std::string text_path_;
  std::string out_dir_;
};

/// Pass 2: parse and write the binary row-band tile at a known row offset.
class ParseMapper : public mr::Mapper {
 public:
  ParseMapper(std::string text_path, std::string out_dir,
              std::shared_ptr<const std::vector<Index>> row_offsets)
      : text_path_(std::move(text_path)),
        out_dir_(std::move(out_dir)),
        row_offsets_(std::move(row_offsets)) {}

  void map(std::int64_t, const std::string& value,
           mr::TaskContext& task) override {
    const int m = std::stoi(value);
    auto reader = task.fs().open(text_path_, &task.io());
    const ByteSplit split = split_of(reader.size(), task.cluster_size(), m);
    const std::string text = read_owned_lines(reader, split, &task.io());
    const Matrix band = matrix_from_text(text);
    if (band.rows() == 0) return;
    write_matrix(task.fs(), dfs::join(out_dir_, "band." + std::to_string(m)),
                 band, &task.io());
  }

 private:
  std::string text_path_;
  std::string out_dir_;
  std::shared_ptr<const std::vector<Index>> row_offsets_;
};

}  // namespace

Index import_text_matrix(mr::JobGraph* graph, dfs::Dfs* fs,
                         const std::string& text_path,
                         const std::string& bin_path,
                         std::vector<std::string> control_files) {
  MRI_REQUIRE(graph != nullptr && fs != nullptr, "null graph/fs");
  const std::string out_dir = dfs::parent(dfs::normalize(bin_path)) + "/IMPORT";
  if (fs->exists(out_dir)) fs->remove(out_dir, /*recursive=*/true);
  const int m0 = static_cast<int>(control_files.size());

  // Pass 1: line counts per split.
  {
    mr::JobSpec spec;
    spec.name = "import-count";
    spec.input_files = control_files;
    spec.mapper_factory = [text_path, out_dir] {
      return std::make_unique<CountMapper>(text_path, out_dir);
    };
    graph->wait(graph->submit(std::move(spec)));
  }
  auto offsets = std::make_shared<std::vector<Index>>();
  Index total_rows = 0;
  for (int m = 0; m < m0; ++m) {
    offsets->push_back(total_rows);
    const std::string path = dfs::join(out_dir, "count." + std::to_string(m));
    total_rows += fs->exists(path) ? std::stoll(fs->read_text(path)) : 0;
  }

  // Pass 2: parse into binary row bands.
  {
    mr::JobSpec spec;
    spec.name = "import-parse";
    spec.input_files = control_files;
    spec.mapper_factory = [text_path, out_dir, offsets] {
      return std::make_unique<ParseMapper>(text_path, out_dir, offsets);
    };
    graph->wait(graph->submit(std::move(spec)));
  }

  // Assemble the binary input file the partition job expects (master-side;
  // the bands are in order, so this is one sequential pass).
  IoStats master_io;
  Matrix full(total_rows, 0);
  bool first = true;
  for (int m = 0; m < m0; ++m) {
    const std::string path = dfs::join(out_dir, "band." + std::to_string(m));
    if (!fs->exists(path)) continue;
    const Matrix band = read_matrix(*fs, path, &master_io);
    if (first) {
      full = Matrix(total_rows, band.cols());
      first = false;
    }
    MRI_CHECK_MSG(band.cols() == full.cols(), "ragged text matrix import");
    full.set_block((*offsets)[static_cast<std::size_t>(m)], 0, band);
  }
  MRI_REQUIRE(!first, "text matrix is empty: " + text_path);
  if (fs->exists(bin_path)) fs->remove(bin_path);
  write_matrix(*fs, bin_path, full, &master_io);
  graph->add_master_work(master_io);
  fs->remove(out_dir, /*recursive=*/true);
  MRI_REQUIRE(total_rows == full.cols(),
              "text matrix is not square: " << total_rows << " rows, "
                                            << full.cols() << " cols");
  return total_rows;
}

}  // namespace mri::core
