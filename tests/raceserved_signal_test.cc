/**
 * @file
 * The raceserved binary's shutdown contract, end to end: SIGTERM
 * drains and exits 0 promptly whichever thread the kernel delivers it
 * to and however soon after start-up it lands.  The daemon is spawned
 * as a real process (RACESERVED_BINARY, baked in at configure time)
 * and signalled the moment a connection to it succeeds.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "rl/serve/client.h"

namespace {

using namespace racelogic;
using Clock = std::chrono::steady_clock;

/** Wait up to `limit` for `pid` to exit; true with its status if so. */
bool
waitFor(pid_t pid, Clock::duration limit, int &status)
{
    const Clock::time_point end = Clock::now() + limit;
    do {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } while (Clock::now() < end);
    return false;
}

TEST(Raceserved, SigtermRightAfterAcceptExitsWithinTwoSeconds)
{
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE(testing::Message() << "round " << round);
        const std::string path = testing::TempDir() + "raceserved-" +
                                 std::to_string(::getpid()) + "-" +
                                 std::to_string(round) + ".sock";
        ::unlink(path.c_str());
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::execl(RACESERVED_BINARY, "raceserved", "--unix",
                    path.c_str(), "--workers", "2", "--quiet",
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }

        // Connect as soon as the daemon has bound its socket, and
        // signal it at once: its threads are starting up or just
        // picked the connection up.
        serve::ServeClient client = serve::ServeClient::overUnix(path, 100);
        for (const Clock::time_point end =
                 Clock::now() + std::chrono::seconds(10);
             !client.ok() && Clock::now() < end;) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            client = serve::ServeClient::overUnix(path, 100);
        }
        const bool accepted = client.ok();
        ::kill(pid, SIGTERM);
        int status = 0;
        const bool exited =
            waitFor(pid, std::chrono::seconds(2), status);
        if (!exited) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
        }
        ::unlink(path.c_str());
        ASSERT_TRUE(accepted) << "the daemon never accepted a connection";
        ASSERT_TRUE(exited) << "SIGTERM did not stop the daemon in 2 s";
        ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
}

} // namespace
