// Package strassen is the operation accounting of the
// communication-avoiding parallel Strassen-Winograd algorithm (CAPS)
// of Ballard et al. [8, 25], the workload of the paper's §4.2 and §4.3
// experiments. Costs gives the exact words moved and flops per rank
// of a BFS/DFS schedule, WorkingSetBytes the storage a run needs, and
// ValidateParams the rank and dimension constraints the paper's runs
// obeyed; package model maps these volumes onto partition geometries.
// Nothing here multiplies matrices: the paper's matmul results come
// from this accounting, not from executing the algorithm.
package strassen
