"""Property-based tests for the job's semantic plan key.

``structural_hash`` must pin the labelled structure exactly — anything
generation reads, including task labels — while ignoring the job's name
and owner.  This invariant is what makes the flow layer's plan cache
sound: it reuses plans bit-identically by structure.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import DataTransfer, Job, Task
from repro.workload.generator import generate_job

seeds = st.integers(0, 10**6)


def random_job(seed):
    return generate_job(np.random.default_rng(seed), seed)


def relabeled(job, seed, rename=True):
    """An isomorphic copy: renamed ids, permuted insertion order."""
    rng = np.random.default_rng(seed)
    task_ids = list(job.tasks)
    mapping = {tid: (f"X{position}" if rename else tid)
               for position, tid in enumerate(task_ids)}
    task_order = [task_ids[i] for i in rng.permutation(len(task_ids))]
    tasks = [Task(mapping[tid], volume=job.task(tid).volume,
                  best_time=job.task(tid).best_time,
                  worst_time=job.task(tid).worst_time)
             for tid in task_order]
    edge_order = [job.transfers[i]
                  for i in rng.permutation(len(job.transfers))]
    transfers = [DataTransfer(f"Y{position}" if rename else t.transfer_id,
                              mapping[t.src], mapping[t.dst],
                              volume=t.volume, base_time=t.base_time)
                 for position, t in enumerate(edge_order)]
    return Job("renamed", tasks, transfers, deadline=job.deadline,
               owner="someone-else")


@given(seeds, seeds)
@settings(max_examples=50)
def test_structural_hash_ignores_only_name_and_owner(seed, shuffle):
    job = random_job(seed)
    twin = Job("other-name", list(job.tasks.values()), job.transfers,
               deadline=job.deadline, owner="other-owner")
    assert twin.structural_hash == job.structural_hash
    # Renaming tasks is visible to generation (tie-breaks read labels),
    # so it must change the structural key even on an isomorphic copy.
    renamed = relabeled(job, shuffle)
    assert renamed.structural_hash != job.structural_hash


@given(seeds)
@settings(max_examples=50)
def test_structural_hash_tracks_estimations_and_deadline(seed):
    job = random_job(seed)
    tasks = list(job.tasks.values())
    bumped = [Task(t.task_id, volume=t.volume + 1.0, best_time=t.best_time,
                   worst_time=t.worst_time) if position == 0 else t
              for position, t in enumerate(tasks)]
    assert Job(job.job_id, bumped, job.transfers, deadline=job.deadline,
               owner=job.owner).structural_hash != job.structural_hash
    assert Job(job.job_id, tasks, job.transfers, deadline=job.deadline + 1,
               owner=job.owner).structural_hash != job.structural_hash
