#include "devsim/dev_board.hh"

namespace clio {

DevBoard::DevBoard(const ModelConfig &cfg, std::uint64_t phys_bytes)
    : net_(eq_, cfg.net, cfg.seed + 4242)
{
    board_ = std::make_unique<CBoard>(eq_, net_, cfg, phys_bytes);
}

DevProcess
DevBoard::openProcess()
{
    return DevProcess(*this, next_pid_++);
}

} // namespace clio
