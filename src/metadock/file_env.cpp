#include "src/metadock/file_env.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace dqndock::metadock {

namespace fs = std::filesystem;

namespace {

/// Create a fresh, private exchange dir under the system temp dir.
/// mkdtemp picks the suffix atomically, so FileEnvs in different
/// processes (parallel test runs, concurrent trainers) can never share
/// one, whatever their seeds; the seed only labels the name.
fs::path makeExchangeDir(std::uint64_t seed) {
  std::string templ =
      (fs::temp_directory_path() / ("dqndock-ipc-" + std::to_string(seed) + "-XXXXXX")).string();
  if (::mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("FileEnv: mkdtemp(" + templ + ") failed: " + std::strerror(errno));
  }
  return templ;
}

}  // namespace

FileEnv::FileEnv(DockingEnv& env, fs::path exchangeDir, std::uint64_t seed)
    : env_(env), dir_(std::move(exchangeDir)) {
  if (dir_.empty()) {
    dir_ = makeExchangeDir(seed);
    ownsDir_ = true;
  } else {
    fs::create_directories(dir_);
  }
}

FileEnv::~FileEnv() {
  if (ownsDir_) {
    std::error_code ec;
    fs::remove_all(dir_, ec);  // best-effort cleanup
  }
}

double FileEnv::reset() {
  const double score = env_.reset();
  StepResult initial;
  initial.score = score;
  writeStateAndScore(initial);
  const StepResult parsed = readStateAndScore();
  return parsed.score;
}

StepResult FileEnv::step(int action) {
  // Agent side: persist the chosen action.
  writeAction(action);
  // METADOCK side: read the action file, advance the simulation, persist
  // the new state and its score as two separate files (paper Section 5).
  const int parsedAction = readAction();
  const StepResult result = env_.step(parsedAction);
  writeStateAndScore(result);
  // Agent side again: load both files back.
  return readStateAndScore();
}

void FileEnv::writeAction(int action) const {
  std::ofstream out(dir_ / "action.txt", std::ios::trunc);
  if (!out) throw std::runtime_error("FileEnv: cannot write action.txt");
  out << action << '\n';
  out.flush();
}

int FileEnv::readAction() const {
  std::ifstream in(dir_ / "action.txt");
  if (!in) throw std::runtime_error("FileEnv: cannot read action.txt");
  int action = -1;
  in >> action;
  if (!in) throw std::runtime_error("FileEnv: malformed action.txt");
  return action;
}

void FileEnv::writeStateAndScore(const StepResult& result) const {
  {
    std::ofstream out(dir_ / "state.txt", std::ios::trunc);
    if (!out) throw std::runtime_error("FileEnv: cannot write state.txt");
    out.precision(17);
    const auto positions = env_.ligandPositions();
    out << positions.size() << '\n';
    for (const auto& p : positions) out << p.x << ' ' << p.y << ' ' << p.z << '\n';
    out.flush();
  }
  {
    std::ofstream out(dir_ / "score.txt", std::ios::trunc);
    if (!out) throw std::runtime_error("FileEnv: cannot write score.txt");
    out.precision(17);
    out << result.score << ' ' << result.reward << ' ' << (result.terminal ? 1 : 0) << ' '
        << static_cast<int>(result.reason) << '\n';
    out.flush();
  }
}

StepResult FileEnv::readStateAndScore() {
  {
    std::ifstream in(dir_ / "state.txt");
    if (!in) throw std::runtime_error("FileEnv: cannot read state.txt");
    std::size_t n = 0;
    in >> n;
    parsedPositions_.resize(n);
    for (auto& p : parsedPositions_) in >> p.x >> p.y >> p.z;
    if (!in) throw std::runtime_error("FileEnv: malformed state.txt");
  }
  StepResult result;
  {
    std::ifstream in(dir_ / "score.txt");
    if (!in) throw std::runtime_error("FileEnv: cannot read score.txt");
    int terminal = 0, reason = 0;
    in >> result.score >> result.reward >> terminal >> reason;
    if (!in) throw std::runtime_error("FileEnv: malformed score.txt");
    result.terminal = terminal != 0;
    result.reason = static_cast<Termination>(reason);
  }
  return result;
}

}  // namespace dqndock::metadock
