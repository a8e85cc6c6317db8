/** libFuzzer target: differential pairwise grid kernel (see fuzz/harness.h). */

#include "fuzz/harness.h"

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    return racelogic::fuzz::kernelInput(data, size);
}
