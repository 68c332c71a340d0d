package main

import (
	"testing"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
)

func TestOracleRejectsStaleGeneration(t *testing.T) {
	spec := device.R9Nano()
	_, libs, shapes := smallLibraries(t, spec)
	// A shape the two libraries answer differently, so a stale answer
	// cannot pass by coincidence.
	var shape gemm.Shape
	found := false
	for _, s := range shapes {
		if libs[0].Configs[libs[0].ChooseIndex(s)] != libs[1].Configs[libs[1].ChooseIndex(s)] {
			shape, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("test libraries agree on every shape")
	}
	dev := spec.Name
	o := newOracle()
	o.publish("replica-0", dev, 1, libs[0], 0)
	o.publish("replica-0", dev, 3, libs[1], 1)
	o.reloaded(dev, 1000) // reload epoch 1 completed at t=1000

	answerOf := func(gen uint64, lib int, sent int64) answer {
		idx := libs[lib].ChooseIndex(shape)
		return answer{device: dev, shape: shape, sent: sent, gen: gen, index: idx, config: libs[lib].Configs[idx]}
	}
	if err := o.check(answerOf(1, 0, 500)); err != nil {
		t.Fatalf("old generation before the reload completed: %v", err)
	}
	if err := o.check(answerOf(3, 1, 2000)); err != nil {
		t.Fatalf("new generation: %v", err)
	}
	if err := o.check(answerOf(1, 0, 2000)); err == nil {
		t.Fatal("stale generation 1 answering a request sent after the reload was accepted")
	}
	if err := o.check(answerOf(3, 0, 2000)); err == nil {
		t.Fatal("generation 3 answered with the other library's choice was accepted")
	}
	if err := o.check(answerOf(9, 1, 2000)); err == nil {
		t.Fatal("an unpublished generation was accepted")
	}
}
