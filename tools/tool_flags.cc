#include "tool_flags.h"

#include <exception>
#include <fstream>
#include <sstream>

#include "focq/approx/params.h"
#include "focq/structure/io.h"

namespace focq {
namespace tools {

namespace {

// --threads: a non-negative int.
bool ParseNonNegativeInt(const std::string& text, int* out) {
  try {
    std::size_t pos = 0;
    *out = std::stoi(text, &pos);
    return pos == text.size() && *out >= 0;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

bool ArgReader::Next() {
  if (next_ >= argc_) return false;
  arg_ = argv_[next_++];
  return true;
}

bool ArgReader::Value(std::string_view name, std::string* value) {
  if (arg_ == name) {
    if (next_ >= argc_) {
      missing_value_ = true;
      value->clear();
    } else {
      *value = argv_[next_++];
    }
    return true;
  }
  if (arg_.size() > name.size() && arg_.starts_with(name) &&
      arg_[name.size()] == '=') {
    *value = arg_.substr(name.size() + 1);
    return true;
  }
  return false;
}

bool ParseNonNegativeInt64(const std::string& text, std::int64_t* out) {
  try {
    std::size_t pos = 0;
    *out = std::stoll(text, &pos);
    return pos == text.size() && *out >= 0;
  } catch (const std::exception&) {
    return false;
  }
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    std::size_t pos = 0;
    *out = std::stoull(text, &pos);
    return pos == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool ParseDouble(const std::string& text, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(text, &pos);
    return pos == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool EvalFlags::Read(ArgReader* args) {
  std::string value;
  if (args->Switch("--approx-stratify")) {
    approx_stratify = true;
    return true;
  }
  for (auto [name, field] :
       {std::pair{"--engine", &engine}, std::pair{"--threads", &threads},
        std::pair{"--eps", &eps}, std::pair{"--delta", &delta},
        std::pair{"--approx-seed", &approx_seed}}) {
    if (args->Value(name, &value)) {
      *field = value;
      return true;
    }
  }
  return false;
}

Status EvalFlags::Apply(EvalOptions* options) const {
  if (threads && !ParseNonNegativeInt(*threads, &options->num_threads)) {
    return Status::InvalidArgument("--threads expects a non-negative integer");
  }
  if (engine) {
    if (*engine == "naive") {
      options->engine = Engine::kNaive;
    } else if (*engine == "local") {
      options->engine = Engine::kLocal;
    } else if (*engine == "cover") {
      options->engine = Engine::kLocal;
      options->term_engine = TermEngine::kSparseCover;
    } else if (*engine == "approx") {
      options->engine = Engine::kApprox;
    } else {
      return Status::InvalidArgument("unknown engine '" + *engine + "'");
    }
  }
  if (eps && !ParseDouble(*eps, &options->approx.eps)) {
    return Status::InvalidArgument("--eps expects a number in (0, 1)");
  }
  if (delta && !ParseDouble(*delta, &options->approx.delta)) {
    return Status::InvalidArgument("--delta expects a number in (0, 1)");
  }
  if (approx_seed && !ParseU64(*approx_seed, &options->approx.seed)) {
    return Status::InvalidArgument(
        "--approx-seed expects a non-negative integer");
  }
  if (approx_stratify) options->approx.stratify = true;
  return ValidateApproxParams(options->approx);
}

Result<Structure> LoadStructure(const std::string& path, bool edges) {
  if (!edges) return ReadStructureFile(path);
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadEdgeList(buffer.str());
}

}  // namespace tools
}  // namespace focq
