#include "ooh/epoch_run.hpp"

#include <cstdlib>

namespace ooh::lib {

unsigned epoch_threads_from_env() noexcept {
  const char* env = std::getenv("OOH_EPOCH_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<unsigned>(v) : 0;
}

}  // namespace ooh::lib
