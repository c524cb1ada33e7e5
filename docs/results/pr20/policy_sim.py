# cached_dashboard's key stream against a 4,096-entry cache: FIFO by insertion
# (what qcache does, before and after PR 20) against LRU, and the shape of
# FIFO's misses over time. 5,000 sources primed in order, hot set = the first
# 1,000; a query picks 8 distinct sources, 90 % of queries from the hot set,
# 10 % from the whole fleet.    python3 docs/results/pr20/policy_sim.py
import random
from collections import OrderedDict

def run(policy, seed, queries=150000, block=2000, cap=4096, n=5000, hot=1000):
    rng = random.Random(seed)
    c = OrderedDict()
    for k in range(n):
        if len(c) >= cap:
            c.popitem(last=False)
        c[k] = 1
    miss = tot = 0
    blocks, in_block = [], 0
    for q in range(queries):
        pool = hot if rng.random() < 0.9 else n
        for k in rng.sample(range(pool), 8):
            tot += 1
            if k in c:
                if policy == 'lru':
                    c.move_to_end(k)
            else:
                miss += 1
                in_block += 1
                if len(c) >= cap:
                    c.popitem(last=False)
                c[k] = 1
        if (q + 1) % block == 0:
            blocks.append(round(in_block / block, 2))
            in_block = 0
    return miss / tot, blocks

for seed in (1, 20030901):
    fifo, fifo_blocks = run('fifo', seed)
    lru, lru_blocks = run('lru', seed)
    print('seed %d: miss share of source lookups  fifo %.4f  lru %.4f' % (seed, fifo, lru))
    print('  harvests per query, blocks of 2,000 queries, fifo:', fifo_blocks[:30])
    print('  harvests per query, blocks of 2,000 queries, lru: ', lru_blocks[:30])
