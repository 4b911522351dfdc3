// imca-lint — coroutine-lifetime & suspension-safety analyzer (DESIGN.md
// §5g/§5k).
//
// Usage:
//   imca-lint [--root DIR] PATH...        lint files / directories
//   imca-lint --verify PATH...            corpus mode: findings must match
//                                         `// EXPECT: IMCA-…` comments exactly
//   imca-lint --json=FILE ...             also write a BENCH_lint.json
//                                         self-timing record (imca-bench/v1)
//   imca-lint --list-checks               print the check catalogue
//
// Paths are made relative to --root (default: cwd) for path-scoped checks
// (IMCA-BYTE-VEC applies under src/ only) and for stable output. Exit 0 iff
// clean (or, in --verify mode, iff findings == expectations).
//
// The run is two passes: pass 1 lexes every file and builds the whole-tree
// symbol index (per-function suspension / lock / this / mutation summaries,
// see index.h); pass 2 runs the checks per file against that index.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyzer.h"
#include "index.h"
#include "lexer.h"

namespace fs = std::filesystem;
using imca::lint::Finding;
using imca::lint::LexedFile;

namespace {

constexpr const char* kChecks[][2] = {
    {"IMCA-CORO-REF",
     "coroutine parameter by const-ref, rvalue-ref, string_view or BufView"},
    {"IMCA-CORO-LAMBDA", "capturing lambda that is itself a coroutine"},
    {"IMCA-CORO-THIS",
     "`this` reached (directly or via a member call) after a real suspension "
     "without a liveness token (alive_)"},
    {"IMCA-ITER-AWAIT",
     "member container iterated across a suspension while same-class methods "
     "can mutate it"},
    {"IMCA-LOCK-AWAIT",
     "sim::Mutex re-entry across co_await, or an unguarded member RMW "
     "spanning a suspension"},
    {"IMCA-STAT-RMW",
     "stats/ledger counter written from a value captured before a suspension"},
    {"IMCA-DETACH", "Task created and dropped without await/store/spawn"},
    {"IMCA-MOVED-BUF", "Buffer/ByteBuf used after std::move in the same scope"},
    {"IMCA-BYTE-VEC",
     "std::vector<std::byte> payload signature under src/ (use Buffer)"},
    {"IMCA-NOLINT-BARE", "NOLINT(imca-…) without a ': justification'"},
};

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
         ext == ".cpp" || ext == ".cxx";
}

std::vector<fs::path> expand(const std::vector<std::string>& args,
                             const fs::path& root) {
  std::vector<fs::path> files;
  for (const std::string& a : args) {
    fs::path p(a);
    if (p.is_relative()) p = root / p;
    if (fs::is_directory(p)) {
      for (auto it = fs::recursive_directory_iterator(p);
           it != fs::recursive_directory_iterator(); ++it) {
        const std::string name = it->path().filename().string();
        // lint_corpus holds deliberate violations for --verify; reach it by
        // passing the directory (or its files) explicitly, never by sweep.
        if (it->is_directory() &&
            (name.rfind("build", 0) == 0 || name[0] == '.' ||
             name == "lint_corpus")) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(p)) {
      files.push_back(p);
    } else {
      std::cerr << "imca-lint: no such path: " << a << "\n";
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::string rel_to(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path r = fs::relative(p, root, ec);
  if (ec || r.empty() || r.string().rfind("..", 0) == 0) {
    return p.lexically_normal().string();
  }
  return r.string();
}

// `// EXPECT: IMCA-CORO-REF[, IMCA-…]` — expectations for --verify mode.
std::set<Finding> parse_expectations(const std::string& relpath,
                                     const LexedFile& lexed) {
  std::set<Finding> out;
  for (const auto& cm : lexed.comments) {
    const size_t pos = cm.text.find("EXPECT:");
    if (pos == std::string::npos) continue;
    std::stringstream ss(cm.text.substr(pos + 7));
    std::string id;
    while (std::getline(ss, id, ',')) {
      id.erase(0, id.find_first_not_of(" \t"));
      id.erase(id.find_last_not_of(" \t\r") + 1);
      if (id.rfind("IMCA-", 0) == 0) {
        out.insert({relpath, cm.line, id, ""});
      }
    }
  }
  return out;
}

#ifndef IMCA_GIT_REV
#define IMCA_GIT_REV "unknown"
#endif

// Self-timing in the same imca-bench/v1 shape the perf trajectory uses
// (tools/check_bench_schema.py validates it): one record for sweep
// throughput (events = files linted) and one for the finding count, so the
// trajectory catches both an analyzer slowdown and a finding-count jump.
void write_bench_json(const std::string& path, std::size_t nfiles,
                      std::size_t nfindings, double wall_ms) {
  // Peak RSS is VmHWM, which belongs to this address space alone; getrusage's
  // ru_maxrss survives execve and would report the launcher's peak.
  long rss_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream(line.substr(6)) >> rss_kb;
      break;
    }
  }
  const double secs = wall_ms / 1000.0;
  const double files_per_sec =
      secs > 0 ? static_cast<double>(nfiles) / secs : 0.0;
  std::ofstream out(path);
  out << "{\n  \"schema\": \"imca-bench/v1\",\n  \"git_rev\": \""
      << IMCA_GIT_REV << "\",\n  \"results\": [\n";
  const auto record = [&](const char* bench, std::size_t events,
                          double eps, bool last) {
    out << "    {\n      \"schema\": \"imca-bench/v1\",\n      \"git_rev\": \""
        << IMCA_GIT_REV << "\",\n      \"bench\": \"" << bench
        << "\",\n      \"events\": " << events << ",\n      \"wall_ms\": "
        << wall_ms << ",\n      \"events_per_sec\": " << eps
        << ",\n      \"peak_rss_kb\": " << rss_kb << "\n    }"
        << (last ? "\n" : ",\n");
  };
  record("imca_lint/sweep", nfiles, files_per_sec, false);
  record("imca_lint/findings", nfindings,
         secs > 0 ? static_cast<double>(nfindings) / secs : 0.0, true);
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  fs::path root = fs::current_path();
  std::string json_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--verify") {
      verify = true;
    } else if (a == "--root" && i + 1 < argc) {
      root = fs::path(argv[++i]);
    } else if (a.rfind("--root=", 0) == 0) {
      root = fs::path(a.substr(7));
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a == "--list-checks") {
      for (const auto& c : kChecks) {
        std::cout << c[0] << "  " << c[1] << "\n";
      }
      return 0;
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: imca-lint [--root DIR] [--verify] [--json=FILE] "
                   "PATH...\n";
      return 0;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) {
    std::cerr << "imca-lint: no paths given (try --help)\n";
    return 2;
  }
  root = fs::absolute(root).lexically_normal();

  const std::vector<fs::path> files = expand(paths, root);
  if (files.empty()) {
    std::cerr << "imca-lint: nothing to lint\n";
    return 2;
  }

  const auto t0 = std::chrono::steady_clock::now();

  // Pass 1: lex everything, build the whole-tree symbol index.
  std::vector<std::pair<std::string, LexedFile>> lexed;
  lexed.reserve(files.size());
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    lexed.emplace_back(rel_to(f, root), imca::lint::lex(ss.str()));
  }
  std::vector<std::pair<std::string, const LexedFile*>> refs;
  refs.reserve(lexed.size());
  for (const auto& [relpath, lx] : lexed) refs.emplace_back(relpath, &lx);
  const imca::lint::SymbolIndex index = imca::lint::build_index(refs);

  // Pass 2: analyze each file against the index. In --verify mode every
  // check applies to every file and findings are diffed against the corpus
  // EXPECT annotations.
  std::vector<Finding> findings;
  std::set<Finding> expected;
  for (const auto& [relpath, lx] : lexed) {
    std::vector<Finding> fs_ =
        imca::lint::analyze(relpath, lx, index, verify);
    findings.insert(findings.end(), fs_.begin(), fs_.end());
    if (verify) {
      std::set<Finding> ex = parse_expectations(relpath, lx);
      expected.insert(ex.begin(), ex.end());
    }
  }
  std::sort(findings.begin(), findings.end());

  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  if (!json_path.empty()) {
    write_bench_json(json_path, files.size(), findings.size(), wall_ms);
  }

  if (!verify) {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.check << "] "
                << f.message << "\n";
    }
    if (findings.empty()) {
      std::cout << "imca-lint: clean (" << files.size() << " files)\n";
      return 0;
    }
    std::cout << "imca-lint: " << findings.size() << " finding(s) in "
              << files.size() << " files\n";
    return 1;
  }

  // --verify: exact (file, line, check) match, both directions.
  std::set<Finding> actual;
  for (const Finding& f : findings) actual.insert({f.file, f.line, f.check, ""});
  int bad = 0;
  for (const Finding& e : expected) {
    if (actual.count(e) == 0) {
      std::cout << "MISSING  " << e.file << ":" << e.line << ": expected ["
                << e.check << "] did not fire\n";
      ++bad;
    }
  }
  for (const Finding& a : actual) {
    if (expected.count(a) == 0) {
      std::cout << "SPURIOUS " << a.file << ":" << a.line << ": [" << a.check
                << "] fired with no EXPECT\n";
      ++bad;
    }
  }
  std::cout << "imca-lint --verify: " << expected.size() << " expected, "
            << actual.size() << " actual, " << bad << " mismatch(es)\n";
  return bad == 0 ? 0 : 1;
}
