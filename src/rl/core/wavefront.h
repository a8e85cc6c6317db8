/**
 * @file
 * Forwarding header: the DAG race kernel is core::raceDag() in
 * rl/core/race_network.h.  Include that header in new code.
 */

#ifndef RACELOGIC_CORE_WAVEFRONT_H
#define RACELOGIC_CORE_WAVEFRONT_H

#include "rl/core/race_network.h"

#endif // RACELOGIC_CORE_WAVEFRONT_H
