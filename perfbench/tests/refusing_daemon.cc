/**
 * A raceserved stand-in that answers every solve with an error.
 *
 *   refusing_daemon --unix PATH [any raceserved flags, ignored]
 *
 * It speaks the real wire protocol: Health reports Ready, Ping,
 * Stats and Metrics answer with empty bodies, and every other request
 * gets Status::ResourceExhausted.  run.py --self-test points perfbench
 * at it to prove that a daemon that does no work makes the run fail
 * rather than score as a gain.  SIGTERM ends it.
 */

#include <cstdio>
#include <string>
#include <thread>

#include <sys/socket.h>

#include "rl/bio/alphabet.h"
#include "rl/serve/socket.h"
#include "rl/serve/wire.h"

namespace rl = racelogic;
namespace serve = rl::serve;

namespace {

serve::Response
answer(const serve::Request &request)
{
    serve::Response r;
    r.id = request.id;
    r.tag = request.tag;
    switch (request.tag) {
    case serve::RequestTag::Health:
        r.health = serve::HealthReply{};
        break;
    case serve::RequestTag::Ping:
        break;
    case serve::RequestTag::Stats:
        r.queueStats = serve::QueueStatsWire{};
        break;
    case serve::RequestTag::Metrics:
        r.metrics = rl::telemetry::Snapshot{};
        break;
    default:
        r.status = serve::Status::ResourceExhausted;
        r.message = "refusing_daemon does no work";
        break;
    }
    return r;
}

void
serveConnection(int raw)
{
    serve::ScopedFd fd(raw);
    for (;;) {
        uint8_t header[4];
        uint32_t length = 0;
        if (!serve::readExact(fd.get(), header, sizeof(header)) ||
            serve::parseFrameHeader(header, sizeof(header),
                                    serve::kDefaultMaxFrameBytes,
                                    length) != serve::WireError::None)
            return;
        std::vector<uint8_t> payload(length);
        if (!serve::readExact(fd.get(), payload.data(), length))
            return;
        serve::Request request;
        serve::decodeRequest(payload, rl::bio::Alphabet::dna(), request);
        const std::vector<uint8_t> out =
            serve::frame(serve::encodeResponse(answer(request)));
        if (!serve::writeAll(fd.get(), out.data(), out.size()))
            return;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--unix")
            path = argv[i + 1];
    if (path.empty()) {
        std::fprintf(stderr, "usage: %s --unix PATH\n", argv[0]);
        return 2;
    }
    serve::ScopedFd listener = serve::listenUnix(path);
    if (!listener.valid())
        return 1;
    for (;;) {
        const int fd = ::accept(listener.get(), nullptr, nullptr);
        if (fd >= 0)
            std::thread(serveConnection, fd).detach();
    }
}
