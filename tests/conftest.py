from densitylab.indexsets import BlockPattern, Fact, FactorialIntervals, Mul, Num, Sub, Var

DENSE_FAMILY = FactorialIntervals(
    pattern=BlockPattern(
        lo=Fact(Sub(Mul(Num(2), Var()), Num(1))),
        hi=Fact(Mul(Num(2), Var())),
    )
)
